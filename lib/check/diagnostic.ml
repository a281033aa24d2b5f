(* Structured analyzer verdicts; see diagnostic.mli. *)

type location =
  | Matrix_cell of { row : int; col : int }
  | Matrix_row of { row : int }
  | Adjacent_pair of { row : int; col : int }
  | Column_triple of { col : int; mid : int }
  | Source_line of { file : string; line : int }
  | Whole

type t = {
  rule : string;
  location : location;
  message : string;
  witness : (string * string) list;
}

let error ?(witness = []) ~rule location message = { rule; location; message; witness }

let rats kvs = List.map (fun (k, v) -> (k, Rat.to_string v)) kvs

let location_to_json = function
  | Matrix_cell { row; col } ->
    Json.Obj [ ("kind", Json.Str "cell"); ("row", Json.Int row); ("col", Json.Int col) ]
  | Matrix_row { row } -> Json.Obj [ ("kind", Json.Str "row"); ("row", Json.Int row) ]
  | Adjacent_pair { row; col } ->
    Json.Obj
      [ ("kind", Json.Str "adjacent-pair"); ("row", Json.Int row); ("col", Json.Int col) ]
  | Column_triple { col; mid } ->
    Json.Obj [ ("kind", Json.Str "column-triple"); ("col", Json.Int col); ("mid", Json.Int mid) ]
  | Source_line { file; line } ->
    Json.Obj [ ("kind", Json.Str "source"); ("file", Json.Str file); ("line", Json.Int line) ]
  | Whole -> Json.Obj [ ("kind", Json.Str "whole") ]

let to_json d =
  Json.Obj
    [
      ("rule", Json.Str d.rule);
      ("location", location_to_json d.location);
      ("message", Json.Str d.message);
      ("witness", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) d.witness));
    ]

let pp_location fmt = function
  | Matrix_cell { row; col } -> Format.fprintf fmt "(%d,%d)" row col
  | Matrix_row { row } -> Format.fprintf fmt "row %d" row
  | Adjacent_pair { row; col } -> Format.fprintf fmt "rows %d/%d col %d" row (row + 1) col
  | Column_triple { col; mid } -> Format.fprintf fmt "col %d rows %d..%d" col (mid - 1) (mid + 1)
  | Source_line { file; line } -> Format.fprintf fmt "%s:%d" file line
  | Whole -> Format.pp_print_string fmt "whole"

let pp fmt d =
  Format.fprintf fmt "%s @@ %a: %s" d.rule pp_location d.location d.message;
  match d.witness with
  | [] -> ()
  | w ->
    Format.fprintf fmt " [%s]"
      (String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) w))
