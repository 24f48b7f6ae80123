let escape_cell s =
  String.concat "\\|" (String.split_on_char '|' s)

let of_table t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("### " ^ Table.title t ^ "\n\n");
  let row cells =
    "| " ^ String.concat " | " (List.map escape_cell cells) ^ " |\n"
  in
  Buffer.add_string buf (row (Table.headers t));
  Buffer.add_string buf
    ("|" ^ String.concat "|" (List.map (fun _ -> "---") (Table.headers t)) ^ "|\n");
  List.iter (fun r -> Buffer.add_string buf (row r)) (Table.rows t);
  Buffer.contents buf

let code_block ?(language = "") body =
  let body =
    if String.length body > 0 && body.[String.length body - 1] = '\n' then body
    else body ^ "\n"
  in
  "```" ^ language ^ "\n" ^ body ^ "```\n"
