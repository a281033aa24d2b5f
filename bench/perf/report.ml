(* Metric names, the result record, JSON in and out, and [compare]. *)

type better = Lower | Higher

type metric = { name : string; unit : string; better : better }

let m ?(better = Lower) name unit = { name; unit; better }

(* What a user of the daemon sees. Latencies of failed requests count
   as +inf. *)
let end_to_end =
  [
    m "setup_s" "s";
    m "lat_p50_ms" "ms";
    m "lat_p90_ms" "ms";
    m ~better:Higher "capacity_rps" "1/s";
    m "peak_rss_mb" "MB";
  ]

(* One layer each; README.md says where each is measured and which
   end-to-end metric it should move. *)
let per_layer =
  [
    m "request.of_line_us" "us";
    m "request.canonical_key_us" "us";
    m "engine.run_jobs_us_per_req" "us";
    m ~better:Higher "pool.speedup_2v1" "ratio";
    m ~better:Higher "engine.cache.hit_ratio" "ratio";
    m ~better:Higher "store.hit_ratio" "ratio";
    m "alias.draw_ns" "ns";
    m "exact.draw_us" "us";
    m "alias.build_us" "us";
    m "serve.ladder_ms" "ms";
    m "serve.ladder_p90_ms" "ms";
    m "serve.rung_share.tailored" "ratio";
    m "lp.solves_per_compile" "count";
    m "lp.pivots_per_compile" "count";
    m ~better:Higher "lp.warm_hit_ratio" "ratio";
    m "lp.max_pivot_bits" "bits";
    m "check.certify_ms" "ms";
    m "store.write_ms" "ms";
    m "store.load_ms" "ms";
    m "store.preload_s" "s";
    m "response.encode_us" "us";
    m "response.bytes" "bytes";
    m "server.latency_mean_us" "us";
    m "server.queue_depth_max" "count";
    m "server.overhead_us" "us";
    m "session.release_ms" "ms";
    m "session.checkpoint_ms" "ms";
    m "session.spent_bits_max" "bits";
    m "load.gen_lag_p99_ms" "ms";
    m "trace.overhead_ratio" "ratio";
    m ~better:Higher "trace.self_coverage" "ratio";
  ]

type result = {
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  failures : string list;  (** the first few failed requests, with why *)
  valid : bool;  (** the generator kept its schedule (lag bound) *)
  metrics : (string * float option) list;
      (** [end_to_end], or [per_layer] when traced; [None] for a layer
          the workload never reaches *)
  info : (string * string) list;  (** printed for reading, never gated *)
}

(* ------------------------------------------------------------------ *)
(* JSON out                                                            *)
(* ------------------------------------------------------------------ *)

(* Full precision; a non-finite value (every request failed) is
   written as a huge finite one so the line stays valid JSON. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "1e300"
let str s = "\"" ^ Obs.Json.escape s ^ "\""
let obj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

let unit_of name =
  let name =
    match String.rindex_opt name '/' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  match List.find_opt (fun m -> String.equal m.name name) (end_to_end @ per_layer) with
  | Some m -> m.unit
  | None -> ""

let metrics_json metrics =
  obj (List.map (fun (k, v) -> (k, obj [ ("value", num v); ("unit", str (unit_of k)) ])) metrics)

let correct r = r.failed = 0

(* The last line of a run: exactly these four keys, and every metric
   by name. A layer the workload never reaches reads 0 there: no time,
   work or hits in it. *)
let summary_line ~correct ~attempted ~failed metrics =
  obj
    [
      ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ("metrics", metrics_json (List.map (fun (k, v) -> (k, Option.value v ~default:0.)) metrics));
    ]

(* One record per run for [compare] ([--out] appends it); it leaves out
   the layers the workload never reaches. *)
let record r =
  obj
    [
      ("workload", str r.workload);
      ("seed", string_of_int r.seed);
      ("traced", string_of_bool r.traced);
      ("valid", string_of_bool r.valid);
      ("correct", string_of_bool (correct r));
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ("metrics", metrics_json (List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v) r.metrics));
    ]

let print_human r =
  Printf.printf "== %s (seed %d%s): %d attempted, %d failed%s\n" r.workload r.seed
    (if r.traced then ", traced" else "")
    r.attempted r.failed
    (if r.valid then "" else " -- INVALID: generator lag over its bound, or under ten samples beyond the p90");
  List.iter (fun f -> Printf.printf "   FAIL %s\n" f) r.failures;
  List.iter (fun (k, v) -> Printf.printf "   %-28s %s\n" k v) r.info;
  List.iter
    (fun (k, v) ->
      match v with
      | Some v -> Printf.printf "   %-28s %14.6g %s\n" k v (unit_of k)
      | None -> Printf.printf "   %-28s %14s (the workload never reaches this layer)\n" k "not measured")
    r.metrics;
  flush stdout

(* ------------------------------------------------------------------ *)
(* JSON in: enough for BENCHMARK.json and the run records             *)
(* ------------------------------------------------------------------ *)

type json = Null | Bool of bool | Num of float | Str of string | Arr of json list | Obj of (string * json) list

exception Parse of string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then text.[!pos] else '\000' in
  let rec ws () =
    if !pos < n && String.contains " \t\r\n" text.[!pos] then begin
      incr pos;
      ws ()
    end
  in
  let expect c =
    ws ();
    if peek () <> c then raise (Parse (Printf.sprintf "expected %c at %d" c !pos));
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub text !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else raise (Parse (Printf.sprintf "bad literal at %d" !pos))
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Parse "unterminated string");
      let c = text.[!pos] in
      incr pos;
      if c = '"' then Buffer.contents b
      else if c = '\\' && !pos < n then begin
        let e = text.[!pos] in
        incr pos;
        Buffer.add_char b (match e with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | c -> c);
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec fields acc =
          let k = string () in
          expect ':';
          let v = value () in
          ws ();
          match peek () with
          | ',' ->
            incr pos;
            fields ((k, v) :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> raise (Parse (Printf.sprintf "bad object at %d" !pos))
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec items acc =
          let v = value () in
          ws ();
          match peek () with
          | ',' ->
            incr pos;
            items (v :: acc)
          | ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> raise (Parse (Printf.sprintf "bad array at %d" !pos))
        in
        items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while !pos < n && String.contains "+-0123456789.eE" text.[!pos] do
        incr pos
      done;
      (match float_of_string_opt (String.sub text start (!pos - start)) with
       | Some f -> Num f
       | None -> raise (Parse (Printf.sprintf "bad value at %d" start)))
  in
  let v = value () in
  ws ();
  if !pos <> n then raise (Parse (Printf.sprintf "trailing data at %d" !pos));
  v

let member k = function Obj fs -> List.assoc_opt k fs | _ -> None

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

(* Bounds of the end-to-end metrics, from BENCHMARK.json. *)
let bounds spec =
  match member "end_to_end" (parse (read_file spec)) with
  | Some (Arr ms) ->
    List.filter_map
      (fun j ->
        match (member "name" j, member "bound" j) with
        | Some (Str k), Some (Num b) -> Some (k, b)
        | _ -> None)
      ms
  | _ -> failwith (spec ^ ": no end_to_end list")

type run = { r_workload : string; r_valid : bool; r_metrics : (string * float) list }

let runs_of_file path =
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        let j = parse line in
        match (member "workload" j, member "metrics" j) with
        | Some (Str w), Some (Obj ms) ->
          Some
            {
              r_workload = w;
              r_valid = (match member "valid" j with Some (Bool b) -> b | _ -> true);
              r_metrics =
                List.filter_map
                  (fun (k, v) -> match member "value" v with Some (Num f) -> Some (k, f) | _ -> None)
                  ms;
            }
        | _ -> None)
    (String.split_on_char '\n' (read_file path))

(* Per workload and metric: each side's median and quartiles, the
   ratio of the medians, and pass / regressed / unresolved against the
   metric's bound. Unresolved: either side's spread (interquartile
   range over median) exceeds the bound, unless every run of B reads
   better than every run of A. Returns whether nothing regressed or
   stayed unresolved. *)
let compare ~spec a_files b_files =
  let bounds = bounds spec in
  let load files = List.filter (fun r -> r.r_valid) (List.concat_map runs_of_file files) in
  let a = load a_files and b = load b_files in
  let workloads = List.sort_uniq String.compare (List.map (fun r -> r.r_workload) (a @ b)) in
  let ok = ref true in
  Printf.printf "%-9s %-28s %30s %30s %8s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "B/A" "verdict";
  List.iter
    (fun w ->
      let values side name =
        Array.of_list
          (List.filter_map
             (fun r -> if String.equal r.r_workload w then List.assoc_opt name r.r_metrics else None)
             side)
      in
      List.iter
        (fun mt ->
          let va = values a mt.name and vb = values b mt.name in
          if Array.length va > 0 && Array.length vb > 0 then begin
            let q1a, meda, q3a = Quant.quartiles va and q1b, medb, q3b = Quant.quartiles vb in
            let meda = if Array.length va < 2 then Quant.median va else meda in
            let medb = if Array.length vb < 2 then Quant.median vb else medb in
            let spread q1 q3 med = (q3 -. q1) /. Float.abs med in
            let worse x y = match mt.better with Lower -> x > y | Higher -> x < y in
            let verdict =
              match List.assoc_opt mt.name bounds with
              | None -> "-"
              | Some bound ->
                (* every run of B reads better than every run of A *)
                let all_better =
                  Array.for_all (fun b -> Array.for_all (fun a -> worse a b) va) vb
                in
                let regress =
                  match mt.better with
                  | Lower -> (medb -. meda) /. Float.abs meda
                  | Higher -> (meda -. medb) /. Float.abs meda
                in
                if all_better then "pass (better)"
                else if not (spread q1a q3a meda <= bound && spread q1b q3b medb <= bound) then begin
                  ok := false;
                  "unresolved"
                end
                else if regress > bound then begin
                  ok := false;
                  "regressed"
                end
                else "pass"
            in
            let side med q1 q3 = Printf.sprintf "%.5g [%.5g, %.5g]" med q1 q3 in
            Printf.printf "%-9s %-28s %30s %30s %8.4f  %s\n" w mt.name (side meda q1a q3a)
              (side medb q1b q3b) (medb /. meda) verdict
          end)
        (end_to_end @ per_layer))
    workloads;
  !ok
