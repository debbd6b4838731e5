(* Performance-observability layer over the span machinery. See profile.mli.

   Everything here is read-side: the instrumented libraries keep recording
   into Trace buffers and Counters atomics as before; Profile aggregates
   those into a per-path profile tree, pulls point-in-time introspection
   values from registered probes, and renders/serialises the result with
   deterministic fields (counters, histograms, span shapes) kept strictly
   apart from nondeterministic ones (wall time, allocated words, probes). *)

(* ---------- introspection probes ---------- *)

type probe = { pr_name : string; pr_read : unit -> (string * int) list }

let probe_mutex = Mutex.create ()
let probes : probe list ref = ref []

let register_probe ~name read =
  Mutex.lock probe_mutex;
  probes :=
    { pr_name = name; pr_read = read }
    :: List.filter (fun p -> p.pr_name <> name) !probes;
  Mutex.unlock probe_mutex

let read_probes () =
  Mutex.lock probe_mutex;
  let ps = !probes in
  Mutex.unlock probe_mutex;
  List.map
    (fun p ->
      (* A probe that raises must not take the whole report down. *)
      let kvs = try p.pr_read () with _ -> [] in
      (p.pr_name, List.sort (fun (a, _) (b, _) -> compare a b) kvs))
    ps
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ---------- profile tree ---------- *)

type row = {
  p_path : string list; (* span nesting path, outermost first *)
  p_count : int;
  p_wall_us : float;
  p_minor_words : float;
  p_promoted_words : float;
  p_major_words : float;
  p_minor_collections : int;
  p_major_collections : int;
}

(* Net words allocated: minor plus major, minus the double count of words
   promoted out of the minor heap. *)
let alloc_words r = r.p_minor_words +. r.p_major_words -. r.p_promoted_words

let rows () =
  let tbl : (string list, row) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (ev : Trace.event) ->
      let r =
        match Hashtbl.find_opt tbl ev.Trace.e_path with
        | Some r -> r
        | None ->
          {
            p_path = ev.Trace.e_path;
            p_count = 0;
            p_wall_us = 0.;
            p_minor_words = 0.;
            p_promoted_words = 0.;
            p_major_words = 0.;
            p_minor_collections = 0;
            p_major_collections = 0;
          }
      in
      let r = { r with p_count = r.p_count + 1; p_wall_us = r.p_wall_us +. ev.Trace.e_dur } in
      let r =
        match ev.Trace.e_gc with
        | None -> r
        | Some g ->
          {
            r with
            p_minor_words = r.p_minor_words +. g.Trace.g_minor_words;
            p_promoted_words = r.p_promoted_words +. g.Trace.g_promoted_words;
            p_major_words = r.p_major_words +. g.Trace.g_major_words;
            p_minor_collections = r.p_minor_collections + g.Trace.g_minor_collections;
            p_major_collections = r.p_major_collections + g.Trace.g_major_collections;
          }
      in
      Hashtbl.replace tbl ev.Trace.e_path r)
    (Trace.events ());
  Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
  |> List.sort (fun a b -> compare a.p_path b.p_path)

let path_string path = String.concat ">" path

(* Siblings sort heaviest subtree first, and children stay grouped under
   their parent: the weight of a path prefix is the wall time of every
   path under it. *)
let flame_summary () =
  let rs = rows () in
  let weight : (string list, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let rec prefixes acc = function
        | [] -> ()
        | x :: rest ->
          let p = acc @ [ x ] in
          Hashtbl.replace weight p
            (r.p_wall_us +. Option.value (Hashtbl.find_opt weight p) ~default:0.);
          prefixes p rest
      in
      prefixes [] r.p_path)
    rs;
  let w p = Option.value (Hashtbl.find_opt weight p) ~default:0. in
  let rec cmp acc a b =
    match (a, b) with
    | [], [] -> 0
    | [], _ -> -1 (* parent row before its children *)
    | _, [] -> 1
    | x :: xs, y :: ys ->
      if x = y then cmp (acc @ [ x ]) xs ys
      else
        let c = compare (w (acc @ [ y ])) (w (acc @ [ x ])) in
        if c <> 0 then c else compare x y
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "span summary (count, total wall time):\n";
  List.iter
    (fun r ->
      let depth = List.length r.p_path - 1 in
      Buffer.add_string buf
        (Printf.sprintf "%s%-*s %6dx %10.3f ms\n"
           (String.make (2 * depth) ' ')
           (max 1 (40 - (2 * depth)))
           (List.nth r.p_path depth) r.p_count (r.p_wall_us /. 1e3)))
    (List.sort (fun a b -> cmp [] a.p_path b.p_path) rs);
  if Trace.dropped () > 0 then
    Buffer.add_string buf
      (Printf.sprintf "(%d events dropped: per-domain buffer cap hit)\n"
         (Trace.dropped ()));
  Buffer.contents buf

let top_by ~top key rs =
  List.sort (fun a b -> compare (key b) (key a)) rs |> fun sorted ->
  List.filteri (fun i _ -> i < top) sorted

let hotspots_by_wall ?(top = 10) rs = top_by ~top (fun r -> r.p_wall_us) rs
let hotspots_by_alloc ?(top = 10) rs = top_by ~top alloc_words rs

let render_table title cols rs =
  let buf = Buffer.create 512 in
  let path_w =
    List.fold_left
      (fun acc r -> max acc (String.length (path_string r.p_path)))
      4 rs
  in
  Buffer.add_string buf (Printf.sprintf "%s\n" title);
  Buffer.add_string buf
    (Printf.sprintf "  %-*s %8s %s\n" path_w "path" "count" cols);
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-*s %8d %12.3f ms %14.0f w %6d mGC %4d MGC\n"
           path_w (path_string r.p_path) r.p_count (r.p_wall_us /. 1e3)
           (alloc_words r) r.p_minor_collections r.p_major_collections))
    rs;
  Buffer.contents buf

let render_hotspots ?(top = 10) () =
  let rs = rows () in
  if rs = [] then "profile: no spans recorded (tracing off?)\n"
  else
    let cols = "        wall        alloc words   minor  major" in
    render_table
      (Printf.sprintf "hotspots by wall time (top %d):" top)
      cols
      (hotspots_by_wall ~top rs)
    ^ "\n"
    ^ render_table
        (Printf.sprintf "hotspots by allocation (top %d):" top)
        cols
        (hotspots_by_alloc ~top rs)

(* ---------- JSON ---------- *)

let probes_json ps =
  Json.Obj (List.map (fun (name, kvs) -> (name, Json.of_counts kvs)) ps)

(* Buckets are serialised up to the last nonzero one so the arrays stay
   short and adding trailing-empty buckets never changes the bytes. *)
let histogram_json (count, sum, buckets) =
  let last = ref (-1) in
  Array.iteri (fun j v -> if v > 0 then last := j) buckets;
  let shown = Array.to_list (Array.sub buckets 0 (!last + 1)) in
  Json.(Obj [ "count", int count; "sum", int sum; "buckets", List (List.map int shown) ])

let span_json r =
  Json.(Obj [ "path", Str (path_string r.p_path); "count", int r.p_count ])

let deterministic_json () =
  let hists = Counters.histogram_snapshot () in
  Json.(
    Obj
      [
        "counters", of_counts (Counters.snapshot ());
        "histograms", Obj (List.map (fun (name, h) -> (name, histogram_json h)) hists);
        "spans", List (List.map span_json (rows ()));
      ])

let hotspot_json r =
  Json.(
    Obj
      [
        "path", Str (path_string r.p_path); "count", int r.p_count;
        "wall_ms", fixed 3 (r.p_wall_us /. 1e3);
        "alloc_words", fixed 0 (alloc_words r);
      ])

let report_json ~protocol ~n ~beta ~seed ~wall_s ~domains ~(gc : Trace.gc_delta)
    ?(top = 10) () =
  let rs = rows () in
  let hotspots l = Json.List (List.map hotspot_json l) in
  let gc =
    Json.(
      Obj
        [
          "minor_words", fixed 0 gc.Trace.g_minor_words;
          "promoted_words", fixed 0 gc.Trace.g_promoted_words;
          "major_words", fixed 0 gc.Trace.g_major_words;
          "minor_collections", int gc.Trace.g_minor_collections;
          "major_collections", int gc.Trace.g_major_collections;
        ])
  in
  Json.(
    Obj
      [
        "schema", Str "repro-profile/2"; "protocol", Str protocol; "n", int n;
        "beta", Num beta; "seed", int seed;
        "deterministic", deterministic_json ();
        ( "nondeterministic",
          Obj
            [
              "wall_s", fixed 6 wall_s; "domains", int domains; "gc", gc;
              "probes", probes_json (read_probes ());
              "hotspots_by_wall", hotspots (hotspots_by_wall ~top rs);
              "hotspots_by_alloc", hotspots (hotspots_by_alloc ~top rs);
            ] );
      ])
