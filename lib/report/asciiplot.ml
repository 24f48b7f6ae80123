type series = { label : string; points : (float * float) array }

let series ~label points = { label; points }

let bounds all =
  let xs = List.concat_map (fun s -> Array.to_list (Array.map fst s.points)) all in
  let ys = List.concat_map (fun s -> Array.to_list (Array.map snd s.points)) all in
  match (xs, ys) with
  | [], _ | _, [] -> invalid_arg "Asciiplot: no points"
  | x :: xs', y :: ys' ->
      let fold = List.fold_left in
      ( fold min x xs',
        fold max x xs',
        fold min y ys',
        fold max y ys' )

let markers = [| '*'; 'o'; '+'; 'x'; '@'; '%' |]

let render ?(width = 64) ?(height = 20) ~title all =
  if all = [] then invalid_arg "Asciiplot.render: no series";
  let x_lo, x_hi, y_lo, y_hi = bounds all in
  let x_span = if x_hi > x_lo then x_hi -. x_lo else 1.0 in
  let y_span = if y_hi > y_lo then y_hi -. y_lo else 1.0 in
  let canvas = Array.make_matrix height width ' ' in
  List.iteri
    (fun si s ->
      let marker = markers.(si mod Array.length markers) in
      Array.iter
        (fun (x, y) ->
          let cx =
            int_of_float ((x -. x_lo) /. x_span *. float_of_int (width - 1))
          in
          let cy =
            int_of_float ((y -. y_lo) /. y_span *. float_of_int (height - 1))
          in
          let row = height - 1 - cy in
          if row >= 0 && row < height && cx >= 0 && cx < width then
            canvas.(row).(cx) <- marker)
        s.points)
    all;
  let buf = Buffer.create (width * height) in
  Buffer.add_string buf ("-- " ^ title ^ " --\n");
  Array.iteri
    (fun row line ->
      let y_label =
        if row = 0 then Printf.sprintf "%10.3g |" y_hi
        else if row = height - 1 then Printf.sprintf "%10.3g |" y_lo
        else Printf.sprintf "%10s |" ""
      in
      Buffer.add_string buf y_label;
      Buffer.add_string buf (String.init width (fun c -> line.(c)));
      Buffer.add_char buf '\n')
    canvas;
  Buffer.add_string buf (Printf.sprintf "%10s +%s\n" "" (String.make width '-'));
  Buffer.add_string buf
    (Printf.sprintf "%10s  %-12s%*s\n" ""
       (Printf.sprintf "%.3g" x_lo)
       (width - 12)
       (Printf.sprintf "%.3g" x_hi));
  List.iteri
    (fun si s ->
      Buffer.add_string buf
        (Printf.sprintf "%10s  [%c] %s\n" ""
           markers.(si mod Array.length markers)
           s.label))
    all;
  Buffer.contents buf

let render_log_y ?(width = 64) ?(height = 20) ~title all =
  let log_series s =
    {
      s with
      points =
        Array.of_list
          (List.filter_map
             (fun (x, y) -> if y > 0.0 then Some (x, log10 y) else None)
             (Array.to_list s.points));
    }
  in
  render ~width ~height ~title:(title ^ " (log10 y)") (List.map log_series all)
