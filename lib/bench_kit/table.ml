let render ~header rows =
  let arity = List.length header in
  List.iteri
    (fun i row ->
      if List.length row <> arity then
        invalid_arg (Printf.sprintf "Table.render: row %d has wrong arity" i))
    rows;
  let all = header :: rows in
  let widths = Array.make arity 0 in
  List.iter
    (List.iteri (fun c cell -> widths.(c) <- max widths.(c) (String.length cell)))
    all;
  let buf = Buffer.create 1024 in
  let emit_row row =
    List.iteri
      (fun c cell ->
        if c > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        if c < arity - 1 then
          Buffer.add_string buf (String.make (widths.(c) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  emit_row header;
  let total = Array.fold_left ( + ) 0 widths + (2 * (arity - 1)) in
  Buffer.add_string buf (String.make total '-');
  Buffer.add_char buf '\n';
  List.iter emit_row rows;
  Buffer.contents buf

let print ~title ~header rows =
  Printf.printf "\n== %s ==\n%s" title (render ~header rows)

let f2 x = Printf.sprintf "%.2f" x
let f3 x = Printf.sprintf "%.3f" x
let opt_f2 = function Some x -> f2 x | None -> "X"
let opt_int = function Some n -> string_of_int n | None -> "X"

let row_table to_string (rows : _ Cell.row list) =
  match rows with
  | [] -> ([], [])
  | first :: _ ->
    let line (r : _ Cell.row) = r.Cell.bench :: List.map (fun (_, v) -> to_string v) r.Cell.values in
    ("Benchmark" :: List.map fst first.Cell.values, List.map line rows)

let markdown ~header rows =
  let arity = List.length header in
  List.iteri
    (fun i row ->
      if List.length row <> arity then
        invalid_arg (Printf.sprintf "Table.markdown: row %d has wrong arity" i))
    rows;
  let line cells = "| " ^ String.concat " | " cells ^ " |\n" in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (line header);
  Buffer.add_string buf (line (List.map (fun _ -> "---") header));
  List.iter (fun row -> Buffer.add_string buf (line row)) rows;
  Buffer.contents buf
