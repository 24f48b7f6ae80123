type cell = string
type t = { title : string; headers : string list; rows : cell list list }

let create ~title ~headers = { title; headers; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Table.add_row: cell count does not match header count";
  { t with rows = t.rows @ [ row ] }

let add_rows t rows = List.fold_left add_row t rows

let of_rows ~title ~headers rows = add_rows (create ~title ~headers) rows

let float ?(precision = 4) x =
  if Float.is_nan x then "nan"
  else if Float.is_integer x && abs_float x < 1e6 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.*g" precision x

let int = string_of_int
let bool b = if b then "yes" else "no"

let title t = t.title
let headers t = t.headers
let rows t = t.rows

let column_widths t =
  let widths = Array.of_list (List.map String.length t.headers) in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    t.rows;
  widths

let render t =
  let widths = column_widths t in
  let pad i s = Printf.sprintf "%-*s" widths.(i) s in
  let line char =
    String.concat "-+-"
      (Array.to_list (Array.map (fun w -> String.make w char) widths))
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf
    (String.concat " | " (List.mapi pad t.headers) ^ "\n");
  Buffer.add_string buf (line '-' ^ "\n");
  List.iter
    (fun row ->
      Buffer.add_string buf (String.concat " | " (List.mapi pad row) ^ "\n"))
    t.rows;
  Buffer.contents buf
