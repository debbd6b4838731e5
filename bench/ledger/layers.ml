(* The traced pass: one run of a workload with spans (with per-span GC
   capture), counters and pool utilization on, split by layer. The spans
   are the ones the program already emits; a layer's self time is its
   spans' time minus the time of their child spans. *)

module Trace = Repro_obs.Trace
module Profile = Repro_obs.Profile
module Counters = Repro_obs.Counters
module Parallel = Repro_util.Parallel

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* Span name -> layer (see [Metrics.layers]); [None] is unattributed. *)
let layer_of name =
  if name = "net.round" || name = "net.sparse_round" || starts_with ~prefix:"engine:" name then
    Some "net"
  else if name = "engine.dispatch" then Some "machines"
  else if starts_with ~prefix:"srds." name then Some "srds"
  else if name = "election.run" || starts_with ~prefix:"aecomm:" name then Some "aetree"
  else if String.length name > 2 && name.[0] >= 'A' && name.[0] <= 'H' && name.[1] = ':' then
    Some "ba"
  else None

(* Per layer: (self microseconds, self allocated words). *)
let self_by_layer (rows : Profile.row list) =
  let children = Hashtbl.create 64 in
  List.iter
    (fun (r : Profile.row) ->
      match List.rev r.p_path with
      | _ :: (_ :: _ as parent_rev) ->
        let parent = List.rev parent_rev in
        let w, a = Option.value ~default:(0., 0.) (Hashtbl.find_opt children parent) in
        Hashtbl.replace children parent (w +. r.p_wall_us, a +. Profile.alloc_words r)
      | _ -> ())
    rows;
  let acc = Hashtbl.create 8 in
  List.iter
    (fun (r : Profile.row) ->
      match layer_of (List.nth r.p_path (List.length r.p_path - 1)) with
      | None -> ()
      | Some l ->
        let cw, ca = Option.value ~default:(0., 0.) (Hashtbl.find_opt children r.p_path) in
        let w, a = Option.value ~default:(0., 0.) (Hashtbl.find_opt acc l) in
        Hashtbl.replace acc l (w +. r.p_wall_us -. cw, a +. Profile.alloc_words r -. ca))
    rows;
  List.map (fun l -> (l, Option.value ~default:(0., 0.) (Hashtbl.find_opt acc l))) Metrics.layers

let ratio a b = if a +. b = 0. then 0. else a /. (a +. b)

(* Runs the workload once with every collector on and returns its outcome,
   its wall time and the layer metrics the run itself determines; unit
   costs, busy shares and sink costs are added by the caller. The Chrome
   trace goes to [trace_file], if given. *)
let traced (w : Workloads.t) ~seed ~trace_file =
  Counters.enable ();
  Trace.set_enabled true;
  Trace.set_gc_capture true;
  Counters.reset ();
  Trace.reset ();
  Parallel.reset_utilization ();
  let caller = (Domain.self () :> int) in
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let o = w.run ~seed in
  let wall = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  Trace.set_enabled false;
  let events = Trace.events () in
  Option.iter
    (fun f -> Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc (Trace.to_chrome_json events)))
    trace_file;
  let util = Parallel.utilization () in
  let busy = Array.fold_left (fun acc (_, b) -> acc +. b) 0. util in
  let tasks = Array.fold_left (fun acc (t, _) -> acc + t) 0 util in
  (* Pooled workloads take shares over busy time summed across domains. *)
  let denom_us = 1e6 *. if w.domains > 1 then busy else wall in
  let layers = self_by_layer (Profile.rows ()) in
  let attributed = List.fold_left (fun acc (_, (s, _)) -> acc +. s) 0. layers in
  (* Allocation: the calling domain's whole-run delta plus the root spans
     other domains recorded (worker domains have no whole-run counter). *)
  let worker_alloc =
    List.fold_left
      (fun acc (e : Trace.event) ->
        match (e.e_path, e.e_gc) with
        | [ _ ], Some g when e.e_tid <> caller ->
          acc +. g.g_minor_words +. g.g_major_words -. g.g_promoted_words
        | _ -> acc)
      0. events
  in
  let c name = float_of_int (Option.value ~default:0 (List.assoc_opt name (Counters.snapshot ()))) in
  let sum_suffix suffix =
    List.fold_left
      (fun acc scheme -> acc +. c (scheme ^ suffix))
      0.
      [ Repro_core.Srds_owf.name; Repro_core.Srds_snark.name; Repro_core.Srds_vrf.name;
        Repro_core.Baseline_multisig.name ]
  in
  let hist name =
    match List.assoc_opt name (Counters.histogram_snapshot ()) with
    | Some (count, sum, _) -> (float_of_int count, float_of_int sum)
    | None -> (0., 0.)
  in
  let msgs, msg_bytes = hist "net.msg_bytes" in
  let active_n, active_sum = hist "net.active_set" in
  let adversary_msgs =
    List.fold_left
      (fun acc (k, v) -> if starts_with ~prefix:"adv.msgs." k then acc +. float_of_int v else acc)
      0. (Counters.snapshot ())
  in
  let metrics =
    List.concat_map
      (fun (l, (self_us, self_alloc)) ->
        [
          (l ^ ".self_ms", self_us /. 1e3);
          (l ^ ".share", self_us /. denom_us);
          (l ^ ".alloc_mwords", self_alloc /. 1e6);
        ])
      layers
    @ [
        ("unattributed.share", (denom_us -. attributed) /. denom_us);
        ("gc.minor_collections", float_of_int (g1.minor_collections - g0.minor_collections));
        ("gc.major_collections", float_of_int (g1.major_collections - g0.major_collections));
        ( "gc.alloc_mwords",
          (g1.minor_words -. g0.minor_words +. g1.major_words -. g0.major_words
         -. (g1.promoted_words -. g0.promoted_words) +. worker_alloc)
          /. 1e6 );
        ("net.msgs", msgs);
        ("net.msg_bytes", msg_bytes);
        ("net.active_set_mean", if active_n = 0. then 0. else active_sum /. active_n);
        ("encode.memo_hit_ratio", ratio (c "encode.memo_hit") (c "encode.memo_miss"));
        ("encode.memo_miss", c "encode.memo_miss");
        ("aecomm.enc_hit_ratio", ratio (c "aecomm.enc_hit") (c "aecomm.enc_miss"));
        ("crypto.sha256_compress", c "sha256.compress");
        ("crypto.hashx_hash", c "hashx.hash");
        ("crypto.hashx_hit_ratio", ratio (c "hashx.cache_hit") (c "hashx.cache_miss"));
        ("crypto.wots_sign", c "wots.sign");
        ("crypto.wots_verify", c "wots.verify");
        ("crypto.wots_hit_ratio", ratio (c "wots.cache_hit") (c "wots.cache_miss"));
        ("snark.pcd_prove", c "pcd.prove");
        ("snark.pcd_verify", c "pcd.verify");
        ("snark.prove", c "snark.prove");
        ("snark.verify", c "snark.verify");
        ("srds.keygen", sum_suffix ".keygen");
        ("srds.sign", sum_suffix ".sign");
        ("srds.aggregate", sum_suffix ".aggregate");
        ("srds.verify", sum_suffix ".verify");
        ("adversary.msgs", adversary_msgs);
        ("sched.pre_gst_lost", float_of_int o.Workloads.pre_gst_lost);
        ("sched.vt_per_round", float_of_int o.vt /. float_of_int (max 1 o.rounds));
        ("pool.busy_ratio", busy /. (float_of_int (Parallel.domains ()) *. wall));
        ("pool.tasks", float_of_int tasks);
      ]
  in
  (* Inputs of the busy shares the caller derives from unit costs. *)
  let raw = [ ("raw.wots_miss", c "wots.cache_miss"); ("raw.denom_s", denom_us /. 1e6) ] in
  (o, wall, metrics @ raw)
