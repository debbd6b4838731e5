(* [ledger compare A B]: one verdict per (workload, end-to-end metric) from
   the samples two ledger documents recorded, judged against the bounds the
   benchmark declares. A document is one invocation's output or a baseline
   holding several invocations under "runs", whose samples are pooled. *)

module Json = Repro_util.Json

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type bound = { bound : float; lower_better : bool; floor : float }

(* The [end_to_end] section of BENCHMARK.json: metric name -> bound, with
   the metric's floor from the catalogue. *)
let bounds_of_benchmark j =
  match Option.bind (Json.member "end_to_end" j) Json.to_list with
  | None -> Error "benchmark: no end_to_end list"
  | Some ms ->
    Ok
      (List.filter_map
         (fun m ->
           match
             ( Option.bind (Json.member "name" m) Json.to_string,
               Option.bind (Json.member "bound" m) Json.to_float,
               Option.bind (Json.member "better" m) Json.to_string )
           with
           | Some name, Some bound, Some better ->
             let floor = Option.fold ~none:0. ~some:(fun (s : Metrics.spec) -> s.floor) (Metrics.find name) in
             Some (name, { bound; lower_better = better = "lower"; floor })
           | _ -> None)
         ms)

(* Samples are (cell seed, value). Exact metrics are deterministic: on the
   cell seeds both sides measured, any difference is a regression; with no
   seed in common only equal medians can be judged (the same). Measured
   metrics are worse or better when the medians differ by more than the
   bound and the floor, and unresolved when either side's interquartile
   range exceeds the bound, unless every run of B beats every run of A. *)
let judge ~exact ~bound (a : (int * float) list) (b : (int * float) list) =
  let xs = List.map snd a and ys = List.map snd b in
  let sa = Stats.summarize xs and sb = Stats.summarize ys in
  if exact then
    let paired = List.filter_map (fun (c, y) -> Option.map (fun x -> (x, y)) (List.assoc_opt c a)) b in
    if paired <> [] then if List.for_all (fun (x, y) -> x = y) paired then Same else Worse
    else if sa.median = sb.median then Same
    else Unresolved
  else
    let worse_by x y = if bound.lower_better then y -. x else x -. y in
    let rel =
      if sa.median = 0. then if sb.median = 0. then 0. else worse_by 0. sb.median *. infinity
      else worse_by sa.median sb.median /. Float.abs sa.median
    in
    let b_beats_all = List.for_all (fun y -> List.for_all (fun x -> worse_by x y < 0.) xs) ys in
    let wide = Stats.rel_spread sa > bound.bound || Stats.rel_spread sb > bound.bound in
    if wide && not b_beats_all then Unresolved
    else if Float.abs (sb.median -. sa.median) <= bound.floor then Same
    else if rel > bound.bound then Worse
    else if rel < -.bound.bound then Better
    else Same

type row = {
  workload : string;
  metric : string;
  unit_ : string;
  a : Stats.summary;
  b : Stats.summary;
  verdict : verdict;
}

let runs doc =
  match Option.bind (Json.member "runs" doc) Json.to_list with
  | Some rs -> rs
  | None -> [ doc ]

let workloads doc =
  List.concat_map
    (fun r ->
      match Option.bind (Json.member "workloads" r) Json.to_list with
      | Some ws ->
        List.filter_map
          (fun w -> Option.map (fun n -> (n, w)) (Option.bind (Json.member "name" w) Json.to_string))
          ws
      | None -> [])
    (runs doc)

let section name w = match Json.member name w with Some (Json.Obj kvs) -> kvs | _ -> []

let names doc =
  List.sort_uniq compare (List.map fst (workloads doc))

(* Pooled end-to-end samples of one workload: metric -> (unit, exact,
   (cell seed, value) list). *)
let samples doc workload =
  let tbl = Hashtbl.create 8 and order = ref [] in
  let floats k v =
    Option.value ~default:[] (Option.map (List.filter_map Json.to_float) (Option.bind (Json.member k v) Json.to_list))
  in
  List.iter
    (fun (n, w) ->
      if n = workload then
        List.iter
          (fun (m, v) ->
            let unit_ = Option.value ~default:"" (Option.bind (Json.member "unit" v) Json.to_string) in
            let exact = Option.value ~default:false (Option.bind (Json.member "exact" v) Json.to_bool) in
            let xs =
              match List.combine (List.map int_of_float (floats "cell_seeds" v)) (floats "samples" v) with
              | xs -> xs
              | exception Invalid_argument _ -> List.map (fun x -> (min_int, x)) (floats "samples" v)
            in
            match Hashtbl.find_opt tbl m with
            | Some (u, e, ys) -> Hashtbl.replace tbl m (u, e, ys @ xs)
            | None ->
              order := m :: !order;
              Hashtbl.replace tbl m (unit_, exact, xs))
          (section "end_to_end" w))
    (workloads doc);
  List.filter_map
    (fun m -> match Hashtbl.find tbl m with _, _, [] -> None | u, e, xs -> Some (m, (u, e, xs)))
    (List.rev !order)

(* Per-layer values of one workload, first run only: context, never judged. *)
let layers doc workload =
  match List.assoc_opt workload (workloads doc) with
  | None -> []
  | Some w ->
    List.filter_map
      (fun (m, v) -> Option.map (fun x -> (m, x)) (Option.bind (Json.member "value" v) Json.to_float))
      (section "per_layer" w)

(* Verdicts for the metrics both documents measured that are exact or have
   a declared bound; measured metrics without one (the raw times) are
   context only. *)
let compare_docs bounds a b =
  List.concat_map
    (fun workload ->
      let sb = samples b workload in
      List.filter_map
        (fun (metric, (unit_, exact, xs)) ->
          match (List.assoc_opt metric sb, List.assoc_opt metric bounds) with
          | None, _ -> None
          | Some _, None when not exact -> None
          | Some (_, _, ys), bound ->
            let bound = Option.value bound ~default:{ bound = 0.; lower_better = true; floor = 0. } in
            Some
              {
                workload;
                metric;
                unit_;
                a = Stats.summarize (List.map snd xs);
                b = Stats.summarize (List.map snd ys);
                verdict = judge ~exact ~bound xs ys;
              })
        (samples a workload))
    (List.filter (fun w -> List.mem w (names b)) (names a))

let render_rows rows =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%-22s %-14s %-38s %-38s %s\n" "workload" "metric" "A median [q1, q3] n"
    "B median [q1, q3] n" "verdict";
  let side (s : Stats.summary) unit_ =
    Printf.sprintf "%.4g %s [%.4g, %.4g] %d" s.median unit_ s.q1 s.q3 s.n
  in
  List.iter
    (fun r ->
      Printf.bprintf b "%-22s %-14s %-38s %-38s %s\n" r.workload r.metric (side r.a r.unit_)
        (side r.b r.unit_) (verdict_name r.verdict))
    rows;
  Buffer.contents b

let render_layers a b =
  let buf = Buffer.create 1024 in
  List.iter
    (fun w ->
      let lb = layers b w in
      List.iter
        (fun (m, x) ->
          match List.assoc_opt m lb with
          | Some y ->
            let d = if x = 0. then "" else Printf.sprintf "%+.1f%%" (100. *. (y -. x) /. Float.abs x) in
            Printf.bprintf buf "  %-22s %-30s %12.4g -> %-12.4g %s\n" w m x y d
          | None -> ())
        (layers a w))
    (List.filter (fun w -> List.mem w (names b)) (names a));
  Buffer.contents buf
