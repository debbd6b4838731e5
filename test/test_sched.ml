(* Executor tests: the deterministic event queue (heap order, per-edge
   latency streams, the GST contract), async run determinism across reruns
   and domain-pool sizes, transcript replay of recorded logs, and the
   zero-knob lock-step shortcut. The shortcut-vs-general digest equalities
   live in test_golden.ml; this file pins the executor itself. *)

module Sched = Repro_net.Sched
module Network = Repro_net.Network
module Replay = Repro_net.Replay
module Recorder = Repro_obs.Recorder
module Rng = Repro_util.Rng
module Parallel = Repro_util.Parallel
module Runner = Repro_core.Runner
open Repro_core

(* --- the heap: pops sorted by (time, seq) --- *)

let qcheck_heap_order =
  QCheck.Test.make ~name:"heap: pops sorted by (time, seq)" ~count:200
    QCheck.(small_list (int_bound 50))
    (fun times ->
      let h = Sched.Heap.create () in
      List.iteri (fun seq time -> Sched.Heap.push h ~time ~seq seq) times;
      let rec drain acc =
        match Sched.Heap.pop h with
        | None -> List.rev acc
        | Some (time, seq, v) ->
          if v <> seq then QCheck.Test.fail_report "payload/seq mismatch";
          drain ((time, seq) :: acc)
      in
      let popped = drain [] in
      let expected =
        List.sort compare (List.mapi (fun seq time -> (time, seq)) times)
      in
      popped = expected)

(* Random interleavings of push and pop against a sorted-list model. Times
   mix a near window (many events per time, as one round's sends land),
   times 64 apart (spread past the near window) and far-future ones (a
   condition's [Defer]); seq is the push counter, as in the executor, and
   pushes at a time already popped from occur. *)
type heap_op = Push of int | Pop

let heap_ops_gen =
  QCheck.Gen.(
    list_size (int_bound 300)
      (frequency
         [
           (5, map (fun t -> Push t) (int_bound 6));
           (1, map (fun k -> Push (64 * k)) (int_range 1 3));
           (1, map (fun t -> Push (1000 + t)) (int_bound 1_000_000));
           (4, return Pop);
         ]))

let qcheck_heap_model =
  QCheck.Test.make ~name:"heap: interleaved push/pop match a sorted-list model"
    ~count:300
    (QCheck.make heap_ops_gen)
    (fun ops ->
      let h = Sched.Heap.create () in
      let model = ref [] and seq = ref 0 and base = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Push dt ->
            incr seq;
            (* times never precede the last pop, as in the executor *)
            let time = !base + dt in
            Sched.Heap.push h ~time ~seq:!seq (string_of_int !seq);
            model := List.merge compare !model [ (time, !seq, string_of_int !seq) ];
            Sched.Heap.size h = List.length !model
          | Pop -> (
            match (!model, Sched.Heap.peek h) with
            | [], None -> Sched.Heap.pop h = None
            | ((t, _, _) as e) :: rest, Some p ->
              let mt = Sched.Heap.min_time h in
              model := rest;
              base := t;
              p = e && mt = t && Sched.Heap.pop h = Some e
            | _ -> false))
        ops
      &&
      let rec drain () =
        match (!model, Sched.Heap.pop h) with
        | [], None -> true
        | e :: rest, Some p when p = e ->
          model := rest;
          drain ()
        | _ -> false
      in
      drain ())

let test_heap_seq_contract () =
  let h = Sched.Heap.create () in
  Sched.Heap.push h ~time:4 ~seq:10 ();
  let raises seq =
    match Sched.Heap.push h ~time:2 ~seq () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "repeated seq raises" true (raises 10);
  Alcotest.(check bool) "smaller seq raises" true (raises 3);
  Alcotest.(check int) "rejected pushes left the queue alone" 1
    (Sched.Heap.size h);
  Alcotest.(check bool) "greater seq accepted" false (raises 11);
  Alcotest.(check (list int)) "drain order" [ 2; 4 ]
    (List.init 2 (fun _ ->
         let t = Sched.Heap.min_time h in
         Sched.Heap.take h;
         t))

(* A popped value is not kept alive by the queue: not by its own slot, not
   by the slot the heap's last event left when it moved, not after a push
   into a partly drained time, nor once its time drained. *)
let test_heap_releases_popped () =
  let h = Sched.Heap.create () in
  let w = Weak.create 11 in
  let push i time =
    let v = Bytes.make 16 (Char.chr (65 + i)) in
    Weak.set w i (Some v);
    Sched.Heap.push h ~time ~seq:i v
  in
  push 0 5;
  push 1 5;
  push 2 5;
  push 3 9;
  ignore (Sys.opaque_identity (Sched.Heap.take h));
  Gc.full_major ();
  Alcotest.(check bool) "popped head collected" false (Weak.check w 0);
  Alcotest.(check bool) "queued values alive" true
    (Weak.check w 1 && Weak.check w 2 && Weak.check w 3);
  (* a push into the partly drained time 5 *)
  push 4 5;
  ignore (Sys.opaque_identity (Sched.Heap.take h));
  ignore (Sys.opaque_identity (Sched.Heap.take h));
  Gc.full_major ();
  Alcotest.(check bool) "popped after a push-after-pop collected" false
    (Weak.check w 1 || Weak.check w 2);
  ignore (Sys.opaque_identity (Sched.Heap.take h));
  Gc.full_major ();
  Alcotest.(check bool) "last of a drained time collected" false (Weak.check w 4);
  Alcotest.(check bool) "later time still queued" true (Weak.check w 3);
  Alcotest.(check int) "one event left" 1 (Sched.Heap.size h);
  (* six events of one time, all but the newest popped *)
  for i = 5 to 10 do
    push i 12
  done;
  for _ = 0 to 5 do
    ignore (Sys.opaque_identity (Sched.Heap.take h))
  done;
  Gc.full_major ();
  for i = 3 to 9 do
    Alcotest.(check bool) (Printf.sprintf "value %d collected" i) false
      (Weak.check w i)
  done;
  Alcotest.(check bool) "newest still queued" true (Weak.check w 10);
  Alcotest.(check int) "and counted" 1 (Sched.Heap.size h)

(* --- latency draws --- *)

(* [draw_latency] against the specification it replaced: a boxed
   [Rng.of_label] child per edge, drawing jitter with [Rng.int] and then
   the loss coin with [Rng.float]. Party indices reach 2^20, edges repeat,
   and a run touches enough distinct edges to grow the stream table
   several times. *)
let reference_latency streams master cfg ~src ~dst ~now =
  let rng =
    match Hashtbl.find_opt streams (src, dst) with
    | Some r -> r
    | None ->
      let r = Rng.of_label master (Printf.sprintf "edge-%d-%d" src dst) in
      Hashtbl.add streams (src, dst) r;
      r
  in
  let j = if cfg.Sched.a_jitter > 0 then Rng.int rng (cfg.a_jitter + 1) else 0 in
  let lost = cfg.a_loss > 0.0 && Rng.float rng < cfg.a_loss in
  if now >= cfg.a_gst then 1 + min j (max 0 cfg.a_delta)
  else if lost then 1 + j + 1 + max 0 cfg.a_delta
  else 1 + j

let qcheck_latency_reference =
  QCheck.Test.make ~name:"draw_latency: equals per-edge Rng.of_label streams"
    ~count:40
    QCheck.(pair small_nat (pair (int_bound 5) (int_bound 3)))
    (fun (seed, (jitter, delta)) ->
      let cfg =
        { Sched.a_seed = seed; a_delta = delta; a_jitter = jitter;
          a_loss = 0.2; a_gst = 2500 }
      in
      let edges = Sched.edges_create ~seed in
      let streams = Hashtbl.create 97 and master = Rng.create seed in
      let gen = Rng.of_label (Rng.create seed) "edge-choice" in
      let recent = Array.make 32 (0, 0) in
      let ok = ref true in
      for now = 0 to 4999 do
        let src, dst =
          if now > 0 && Rng.int gen 3 = 0 then recent.(Rng.int gen (min now 32))
          else
            let wide = Rng.bool gen in
            let party () = Rng.int gen (if wide then (1 lsl 20) + 1 else 64) in
            let e = (party (), party ()) in
            recent.(now mod 32) <- e;
            e
        in
        let lat = Sched.draw_latency edges cfg ~src ~dst ~now in
        if lat <> reference_latency streams master cfg ~src ~dst ~now then
          ok := false
      done;
      !ok && Hashtbl.length streams > 2048)


let chaos ~seed =
  { Sched.a_seed = seed; a_delta = 2; a_jitter = 3; a_loss = 0.25; a_gst = 10 }

(* Exact synchrony consumes no stream: a burst of pure-sync draws must not
   perturb a later chaotic draw on the same edges. *)
let test_pure_sync_no_draws () =
  let sync = Sched.default_async in
  let e1 = Sched.edges_create ~seed:7 in
  for i = 0 to 99 do
    let lat = Sched.draw_latency e1 sync ~src:(i mod 5) ~dst:3 ~now:i in
    Alcotest.(check int) "pure-sync latency" 1 lat
  done;
  let e2 = Sched.edges_create ~seed:7 in
  let c = chaos ~seed:7 in
  for now = 0 to 19 do
    Alcotest.(check int)
      (Printf.sprintf "chaotic draw unperturbed at vt=%d" now)
      (Sched.draw_latency e2 c ~src:2 ~dst:3 ~now)
      (Sched.draw_latency e1 c ~src:2 ~dst:3 ~now)
  done

(* Every latency is >= 1, and past GST it is bounded by 1 + delta whatever
   the jitter/loss knobs say. *)
let qcheck_latency_bounds =
  QCheck.Test.make ~name:"draw_latency: >= 1, post-GST <= 1 + delta"
    ~count:500
    QCheck.(
      quad (int_bound 1000) (int_bound 6) (int_bound 4) (int_bound 40))
    (fun (seed, jitter, delta, gst) ->
      let cfg =
        { Sched.a_seed = seed; a_delta = delta; a_jitter = jitter;
          a_loss = 0.3; a_gst = gst }
      in
      let edges = Sched.edges_create ~seed in
      let ok = ref true in
      for now = 0 to 2 * gst + 5 do
        let lat =
          Sched.draw_latency edges cfg ~src:(seed mod 7) ~dst:(now mod 11) ~now
        in
        if lat < 1 then ok := false;
        if now >= gst && lat > 1 + delta then ok := false
      done;
      !ok)

(* The per-edge streams are children of the master seed keyed by (src, dst):
   same knobs + same seed give identical draws, a different seed diverges. *)
let test_edge_streams_seeded () =
  let c = chaos ~seed:3 in
  let draws seed =
    let edges = Sched.edges_create ~seed in
    List.init 40 (fun i ->
        Sched.draw_latency edges c ~src:(i mod 4) ~dst:(i mod 6) ~now:i)
  in
  Alcotest.(check (list int)) "same seed, same draws" (draws 3) (draws 3);
  Alcotest.(check bool) "different seed diverges" true (draws 3 <> draws 4)

(* Edge-table memory follows the edges touched, not the party indices:
   4,096 distinct edges between parties up to 2^20, most sources with one
   or two destinations, must stay within a constant number of words per
   edge. An n-wide row per source would hold 2^20 slots for each. *)
let test_edge_memory_linear () =
  let cfg = chaos ~seed:11 in
  let edges = Sched.edges_create ~seed:11 in
  let gen = Rng.create 11 and seen = Hashtbl.create 4096 in
  while Hashtbl.length seen < 4096 do
    let src = Rng.int gen ((1 lsl 20) + 1) and dst = Rng.int gen ((1 lsl 20) + 1) in
    Hashtbl.replace seen (src, dst) ();
    ignore (Sched.draw_latency edges cfg ~src ~dst ~now:0 : int);
    (* a few sources fan out widely too *)
    if Hashtbl.length seen mod 512 = 0 then
      for k = 1 to 64 do
        Hashtbl.replace seen (src, k * 16381) ();
        ignore (Sched.draw_latency edges cfg ~src ~dst:(k * 16381) ~now:0 : int)
      done
  done;
  let touched = Hashtbl.length seen in
  let words = Obj.reachable_words (Obj.repr edges) in
  if words > 1024 + (48 * touched) then
    Alcotest.failf "%d edges reach %d words (%.1f per edge)" touched words
      (float_of_int words /. float_of_int touched)

(* --- delivery statistics --- *)

(* The sample keeps the first [log_cap] deliveries, oldest first, while
   the counters see every one; it grows past its first block intact. *)
let test_delivery_sample_cap () =
  let cfg = chaos ~seed:1 in
  let pairs k = List.init k (fun i -> (i, i + 1 + (i mod 3))) in
  let sample ~log_cap k =
    let s = Sched.stats_create ~log_cap () in
    List.iter
      (fun (send_vt, deliver_vt) -> Sched.note_delivery s cfg ~send_vt ~deliver_vt)
      (pairs k);
    ( s.Sched.st_sends,
      List.map (fun d -> (d.Sched.dl_send_vt, d.Sched.dl_deliver_vt)) (Sched.deliveries s) )
  in
  let check name ~log_cap k expected =
    Alcotest.(check (pair int (list (pair int int)))) name (k, expected) (sample ~log_cap k)
  in
  check "cap 3 of 5: the first three" ~log_cap:3 5 [ (0, 1); (1, 3); (2, 5) ];
  check "under the cap: all, in order" ~log_cap:8 5 (pairs 5);
  check "cap 0 samples nothing" ~log_cap:0 5 [];
  check "cap 600 of 1000: grown, the first 600" ~log_cap:600 1000 (pairs 600)

(* --- the partial-synchrony predicate has teeth --- *)

let test_post_gst_teeth () =
  let on_time =
    [ { Sched.dl_send_vt = 12; dl_deliver_vt = 15 };
      { Sched.dl_send_vt = 3; dl_deliver_vt = 30 } (* pre-GST: unconstrained *) ]
  in
  Alcotest.(check bool) "within 1+delta passes" true
    (Sched.post_gst_ok ~gst:10 ~delta:2 on_time);
  let planted_late = { Sched.dl_send_vt = 12; dl_deliver_vt = 16 } in
  Alcotest.(check bool) "planted late delivery fails" false
    (Sched.post_gst_ok ~gst:10 ~delta:2 (planted_late :: on_time))

(* ... and holds on a real async protocol run, measured off the network's
   own delivery log. *)
module Ba_owf = Balanced_ba.Make (Srds_owf)

let run_owf_async ~n ~seed cfg =
  let rng = Rng.create seed in
  let corrupt = Rng.subset rng ~n ~size:(n / 10) in
  let net = Runner.network ~cfg ~n ~corrupt () in
  let bcfg =
    Balanced_ba.default_config ~inputs:(Array.init n (fun i -> i mod 2 = 0)) ~seed ()
  in
  let r = Ba_owf.run ~net ~setup:(Ba_owf.setup ~n ~seed) bcfg in
  (Balanced_ba.outcome net bcfg r, net)

let test_post_gst_on_network () =
  let cfg = chaos ~seed:5 in
  let o, net = run_owf_async ~n:64 ~seed:5 cfg in
  Alcotest.(check bool) "async run agreed" true o.Outcome.agreed;
  let stats = Network.async_stats net in
  let log = Sched.deliveries stats in
  Alcotest.(check bool) "network sampled deliveries" true (log <> []);
  Alcotest.(check bool) "post-GST bound held on the real run" true
    (Sched.post_gst_ok ~gst:cfg.Sched.a_gst ~delta:cfg.Sched.a_delta log);
  Alcotest.(check int) "stats counted no post-GST stragglers" 0
    stats.Sched.st_post_gst_late;
  (* the chaos window actually bit: some pre-GST message took the
     retransmit path, so the bound above was not vacuous *)
  Alcotest.(check bool) "pre-GST losses occurred" true
    (stats.Sched.st_pre_gst_lost > 0)

(* --- the executor against a naive (time, seq) model ---

   The naive reading of async delivery: every send of a round becomes an
   event (delivery time, seq); the round delivers every event due by its
   barrier in (time, seq) order, found by re-sorting the whole pending set
   after each step, and an event held for a dark party goes back just past
   the barrier under a fresh seq. QCheck generates rounds of sends under
   random knobs and random condition programs: extra latency (some of it
   beyond the executor's bucketed range), latencies a condition shrinks
   below 1, [Defer]s before, inside and past the barrier, and down
   windows. The executor must match the model's inboxes and virtual time
   after every round, and its delivery statistics at the end. *)

type dcase = {
  d_n : int;
  d_cfg : Sched.async_cfg;
  d_sends : (int * int) list array; (* per round: (src, dst), send order *)
  d_cseed : int; (* the condition program's verdicts hash from this *)
  d_defer : int; (* percent of sends deferred *)
  d_extra : int; (* percent of sends given extra latency *)
  d_down : (int * int * int) list; (* party dark for rounds [from, to) *)
}

let dcase_condition c =
  {
    Sched.c_name = "model";
    c_route =
      (fun ~now ~round ~src ~dst ~lat ->
        let h = Hashtbl.hash (c.d_cseed, round, src, dst, lat) in
        let pct = h mod 100 and x = h / 100 in
        if pct < c.d_defer then Sched.Defer (now - 1 + (x mod 14))
        else if pct < c.d_defer + c.d_extra then Sched.Deliver (lat + (x mod 90))
        else if pct >= 95 then Sched.Deliver (lat - 3)
        else Sched.Deliver lat);
    c_down =
      (fun ~now:_ ~round p ->
        List.exists (fun (q, r0, r1) -> q = p && round >= r0 && round < r1) c.d_down);
    c_observe = (fun ~now:_ ~round:_ ~msgs:_ ~corrupt:_ -> ());
  }

(* Send order: the network visits parties ascending and each sends its own
   list in order. *)
let dcase_round c r =
  List.mapi (fun k (src, dst) -> (src, dst, Printf.sprintf "%d.%d" r k)) c.d_sends.(r)
  |> List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b)

type dobs = {
  o_rounds : (int * string list array) list; (* vt and inboxes per round *)
  o_stats : int * int * int * int;
  o_log : (int * int) list;
}

let stats_obs (s : Sched.stats) =
  ( (s.Sched.st_sends, s.Sched.st_max_latency, s.Sched.st_pre_gst_lost,
     s.Sched.st_post_gst_late),
    List.map (fun d -> (d.Sched.dl_send_vt, d.Sched.dl_deliver_vt)) (Sched.deliveries s) )

let run_delivery_executor c =
  let n = c.d_n in
  let net = Network.create ~backend:(Sched.Async c.d_cfg) ~n ~corrupt:[] () in
  Network.set_condition net (dcase_condition c);
  let everyone = Network.everyone net in
  let rounds =
    List.init (Array.length c.d_sends) (fun r ->
        let sends = dcase_round c r in
        Views.run_lists net ~rounds:1
          ~extra:(fun ~round:_ -> everyone)
          (fun i ->
            Some
              (fun ~round:_ ~inbox:_ ->
                List.iter
                  (fun (src, dst, p) ->
                    if src = i then Network.send net ~src ~dst ~tag:"m" (Bytes.of_string p))
                  sends));
        ( Network.virtual_time net,
          Array.init n (fun d ->
              List.map (fun (m : Repro_net.Wire.msg) -> Bytes.to_string m.payload)
                (Views.inbox net d)) ))
  in
  let o_stats, o_log = stats_obs (Network.async_stats net) in
  { o_rounds = rounds; o_stats; o_log }

let run_delivery_model c =
  let n = c.d_n and cfg = c.d_cfg in
  let cond = dcase_condition c in
  let edges = Sched.edges_create ~seed:cfg.Sched.a_seed in
  let stats = Sched.stats_create () in
  (* pending events: (time, seq, send vt, dst, payload) *)
  let pending = ref [] and vt = ref 0 and seq = ref 0 in
  let rounds =
    List.init (Array.length c.d_sends) (fun r ->
        let now = !vt in
        let barrier = ref (now + 1) in
        List.iter
          (fun (src, dst, p) ->
            if not (cond.Sched.c_down ~now ~round:r src) then begin
              let lat = Sched.draw_latency edges cfg ~src ~dst ~now in
              let time =
                match cond.Sched.c_route ~now ~round:r ~src ~dst ~lat with
                | Sched.Deliver l ->
                  barrier := max !barrier (now + max 1 l);
                  now + max 1 l
                | Sched.Defer v -> max (now + 1) v
              in
              incr seq;
              pending := (time, !seq, now, dst, p) :: !pending
            end)
          (dcase_round c r);
        let inboxes = Array.make n [] in
        let rec drain () =
          match List.sort compare !pending with
          | (time, _, send_vt, dst, p) :: rest when time <= !barrier ->
            pending := rest;
            if cond.Sched.c_down ~now ~round:(r + 1) dst then begin
              incr seq;
              pending := (!barrier + 1, !seq, !barrier, dst, p) :: !pending
            end
            else begin
              Sched.note_delivery stats cfg ~send_vt ~deliver_vt:time;
              inboxes.(dst) <- inboxes.(dst) @ [ p ]
            end;
            drain ()
          | _ -> ()
        in
        drain ();
        vt := !barrier;
        (!vt, inboxes))
  in
  let o_stats, o_log = stats_obs stats in
  { o_rounds = rounds; o_stats; o_log }

let dcase_gen =
  let open QCheck.Gen in
  let* n = int_range 2 10 in
  let* rounds = int_range 1 8 in
  let* a_seed = int_bound 100_000 in
  let* zero = bool in
  let* a_jitter = int_bound 4 and* a_delta = int_bound 3 and* loss = int_bound 3 in
  let* a_gst = int_bound 30 in
  let party = int_bound (n - 1) in
  let* d_sends = array_repeat rounds (list_size (int_bound 14) (pair party party)) in
  let* d_cseed = int_bound 100_000 and* d_defer = int_bound 30 and* d_extra = int_bound 30 in
  let+ d_down =
    list_size (int_bound 3)
      (map (fun (p, r0, len) -> (p, r0, r0 + len)) (triple party (int_bound rounds) (int_range 1 4)))
  in
  let d_cfg =
    if zero then { Sched.default_async with a_seed; a_gst }
    else
      { Sched.a_seed; a_jitter; a_delta; a_loss = 0.1 *. float_of_int loss; a_gst }
  in
  { d_n = n; d_cfg; d_sends; d_cseed; d_defer; d_extra; d_down }

let dcase_print c =
  let cfg = c.d_cfg in
  Printf.sprintf
    "n=%d seed=%d jitter=%d delta=%d loss=%.1f gst=%d cseed=%d defer=%d%% extra=%d%% down=[%s] sends=[%s]"
    c.d_n cfg.Sched.a_seed cfg.Sched.a_jitter cfg.Sched.a_delta cfg.Sched.a_loss
    cfg.Sched.a_gst c.d_cseed c.d_defer c.d_extra
    (String.concat ";"
       (List.map (fun (p, a, b) -> Printf.sprintf "%d:%d-%d" p a b) c.d_down))
    (String.concat " | "
       (Array.to_list
          (Array.map
             (fun l ->
               String.concat "," (List.map (fun (s, d) -> Printf.sprintf "%d>%d" s d) l))
             c.d_sends)))

let qcheck_delivery_model =
  QCheck.Test.make ~name:"async delivery equals the naive (time, seq) model"
    ~count:300
    (QCheck.make ~print:dcase_print dcase_gen)
    (fun c -> run_delivery_executor c = run_delivery_model c)

(* --- async executor determinism --- *)

(* A sharp oracle for executor order. At n = 64 the chaos *send*
   transcript of the owf pipeline equals the lock-step one, so the rerun
   and pool-size checks below cannot see a reordering bug. This fan-out
   digests what the executor decides: every round's virtual time and each
   inbox in delivery order, under jitter, pre-GST loss, a condition that
   defers one edge set past the round barrier and a party dark for a
   window, then the final delivery statistics. Values recorded with the
   executor's earlier binary-heap queue and tuple-keyed edge streams. *)
let oracle_cfg ~seed =
  { Sched.a_seed = seed; a_delta = 2; a_jitter = 3; a_loss = 0.25; a_gst = 40 }

let oracle_condition =
  {
    Sched.c_name = "oracle";
    c_route =
      (fun ~now ~round ~src ~dst ~lat ->
        if round >= 2 && round < 5 && src mod 8 = 0 && dst mod 8 = 1 then
          Sched.Defer (now + 9)
        else Sched.Deliver lat);
    c_down = (fun ~now:_ ~round p -> p = 5 && round >= 3 && round < 6);
    c_observe = (fun ~now:_ ~round:_ ~msgs:_ ~corrupt:_ -> ());
  }

let executor_order_digest ~seed =
  let n = 64 and rounds = 16 in
  let net =
    Network.create ~backend:(Sched.Async (oracle_cfg ~seed)) ~n ~corrupt:[] ()
  in
  Network.set_condition net oracle_condition;
  let master = Rng.create seed in
  let rngs = Array.init n (fun i -> Rng.of_label master (Printf.sprintf "p%d" i)) in
  let handler i ~round ~inbox =
    let rng = rngs.(i) in
    for _ = 1 to Rng.int rng 5 do
      let dst = Rng.int rng n in
      let tag = Printf.sprintf "t%d" (Rng.int rng 3) in
      Network.send net ~src:i ~dst ~tag
        (Bytes.of_string
           (Printf.sprintf "%d:%d:%d:%d" round i (List.length inbox) (Rng.bits rng)))
    done
  in
  let everyone = Network.everyone net in
  let ctx = Repro_crypto.Sha256.init () in
  let feed s = Repro_crypto.Sha256.feed ctx (Bytes.unsafe_of_string s) 0 (String.length s) in
  for _ = 1 to rounds do
    Views.run_lists net ~rounds:1
      ~extra:(fun ~round:_ -> everyone)
      (fun i -> Some (handler i));
    feed (Printf.sprintf "vt=%d\n" (Network.virtual_time net));
    for dst = 0 to n - 1 do
      List.iter
        (fun (m : Repro_net.Wire.msg) ->
          feed (Printf.sprintf "%d|%d|%s|" dst m.src m.tag);
          feed (Bytes.to_string m.payload);
          feed "\n")
        (Views.inbox net dst)
    done
  done;
  let s = Network.async_stats net in
  feed
    (Printf.sprintf "sends=%d max=%d pre=%d post=%d\n" s.Sched.st_sends
       s.Sched.st_max_latency s.Sched.st_pre_gst_lost s.Sched.st_post_gst_late);
  Repro_crypto.Sha256.hex (Repro_crypto.Sha256.finish ctx)

let test_executor_order_pinned () =
  List.iter
    (fun (seed, want) ->
      Alcotest.(check string)
        (Printf.sprintf "executor order digest, seed %d" seed)
        want (executor_order_digest ~seed))
    [
      (1, "cef8283ab04dbd30e024839c2436607b04a652e17732367664102c87acce2bef");
      (2, "363a06a657fa7fcb8494cc682e6dacf3a0ba5e6d30d991ba6a947c6549c612f6");
      (11, "cac143d7c7866c49d50bd2cbe63b0a94d94f597119a3a9217bd95dfd0fddbcc5");
    ]

(* The same contract end to end: the equivocate x delay cell at n = 256
   (the ledger's async workload), its send transcript hashed in
   [Runner.run_digest]'s line format, with its virtual time and delivery
   statistics. *)
let test_attack_cell_pinned () =
  let module Counters = Repro_obs.Counters in
  let was = Counters.is_enabled () in
  Counters.enable ();
  Counters.reset ();
  let tap, digest = Runner.digest_sink () in
  let c =
    Runner.run_attack_cell ~sinks:[ tap ] ~protocol:Runner.This_work_owf
      ~strategy_name:"equivocate" ~condition_name:"delay" ~n:256 ~beta:0.1
      ~seed:3 ~expect_fail:false ()
  in
  let counted =
    List.filter (fun (_, v) -> v <> 0) (Counters.snapshot ())
  in
  Counters.reset ();
  if not was then Counters.disable ();
  Alcotest.(check string) "transcript digest"
    "7f768d11991fac88ea174ba5adec8f15eaf797897a9fa6fd88946a2025afa33a"
    (digest ());
  Alcotest.(check int) "vt" 484 c.Runner.ac_vt;
  Alcotest.(check int) "pre_gst_lost" 4700 c.Runner.ac_pre_gst_lost;
  Alcotest.(check int) "post_gst_late" 0 c.Runner.ac_post_gst_late;
  (* Every counted operation still runs: the cell's nonzero counters, as
     the executor and f_aggr-sig counted them before their per-message fast
     paths. [hashx.hash] and [wots.verify] count f_aggr-sig's admissions,
     one per distinct (message, signature) at a node, and one message
     digest per partial verification. [sha256.compress] also counts the
     transcript tap, which hashes every send. *)
  Alcotest.(check (list (pair string int))) "counters"
    [
      ("adv.msgs.equivocate", 33033);
      ("aecomm.enc_hit", 1714);
      ("aecomm.enc_miss", 350);
      ("attack.cells", 1);
      ("encode.memo_hit", 25801);
      ("encode.memo_miss", 230);
      ("engine.msgs", 430512);
      ("hashx.hash", 57142);
      ("sha256.compress", 13802355);
      ("srds-owf.aggregate", 184);
      ("srds-owf.keygen", 1032);
      ("srds-owf.sign", 932);
      ("srds-owf.verify", 1);
      ("wots.cache_hit", 228);
      ("wots.cache_miss", 38);
      ("wots.sign", 38);
      ("wots.verify", 266);
    ]
    counted

let async_digest ~n ~seed =
  let _row, digest =
    Runner.run_digest ~cfg:(chaos ~seed) ~protocol:Runner.This_work_owf ~n ~beta:0.1
      ~seed ()
  in
  digest

let test_async_rerun_deterministic () =
  Alcotest.(check string) "same chaotic transcript across reruns"
    (async_digest ~n:64 ~seed:2) (async_digest ~n:64 ~seed:2)

let test_async_pool_independent () =
  let saved = Parallel.domains () in
  Parallel.set_domains 1;
  let one = async_digest ~n:64 ~seed:2 in
  Parallel.set_domains 4;
  let four = async_digest ~n:64 ~seed:2 in
  Parallel.set_domains saved;
  Alcotest.(check string) "chaotic transcript independent of REPRO_DOMAINS"
    one four

(* The acceptance matrix itself: silent and equivocate under chaos knobs,
   including owf at n=256, all reaching agreement + validity within the
   post-GST bound. Their repro-async/2 rows are pinned byte for byte. *)
let test_async_acceptance_cells () =
  let cells = Runner.async_cells () in
  Alcotest.(check int) "acceptance matrix size" 4 (List.length cells);
  let rows =
    String.concat "\n"
      (List.map
         (fun (cfg, c, digest) ->
           Repro_util.Json.compact (Runner.async_cell_json ~cfg ~digest c))
         cells)
  in
  Alcotest.(check string) "async rows digest"
    "68d5d12e64335c609d9114706f0e35136ba9220cd0edb138a53d1ce839151064"
    (Repro_crypto.Sha256.hex (Repro_crypto.Sha256.digest_string rows));
  List.iter
    (fun (_, (c : Runner.attack_cell), _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s vs %s n=%d ok" c.ac_protocol c.ac_strategy c.ac_n)
        true c.ac_ok)
    cells;
  Alcotest.(check bool) "owf n=256 cells present" true
    (List.exists
       (fun (_, (c : Runner.attack_cell), _) ->
         c.ac_protocol = "this-work-owf" && c.ac_n = 256)
       cells)

(* --- the condition hook: Defer parks past the barrier, down holds --- *)

(* Exact synchrony with a distant GST: latency is pinned at 1, so the only
   scheduling variable is the condition under test. *)
let calm ~seed =
  { Sched.a_seed = seed; a_delta = 0; a_jitter = 0; a_loss = 0.0; a_gst = 100 }

(* A [Defer vt] verdict parks the event past the round barrier: it crosses
   rounds and is read when the virtual clock reaches vt, while a [Deliver]
   to another destination in the same send lands next round as usual. *)
let test_condition_defer_crosses_rounds () =
  let n = 4 in
  let net = Network.create ~backend:(Sched.Async (calm ~seed:1)) ~n ~corrupt:[] () in
  Network.set_condition net
    {
      Sched.c_name = "defer-to-2";
      c_route =
        (fun ~now:_ ~round:_ ~src:_ ~dst ~lat ->
          if dst = 2 then Sched.Defer 5 else Sched.Deliver lat);
      c_down = (fun ~now:_ ~round:_ _ -> false);
      c_observe = (fun ~now:_ ~round:_ ~msgs:_ ~corrupt:_ -> ());
    };
  let arrivals = ref [] in
  let handler i ~round ~inbox =
    List.iter
      (fun (m : Repro_net.Wire.msg) ->
        arrivals := (i, round, m.Repro_net.Wire.src) :: !arrivals)
      inbox;
    if i = 0 && round = 0 then begin
      Network.send net ~src:0 ~dst:2 ~tag:"x" (Bytes.of_string "a");
      Network.send net ~src:0 ~dst:3 ~tag:"x" (Bytes.of_string "b")
    end
  in
  Views.run_lists net ~rounds:8
    ~extra:(fun ~round:_ -> Network.everyone net)
    (fun i -> Some (handler i));
  Alcotest.(check (list (triple int int int)))
    "undeferred copy next round, deferred copy at its virtual time"
    [ (3, 1, 0); (2, 5, 0) ]
    (List.rev !arrivals)

(* A party the condition holds down is skipped by the stepper and its mail
   is held: the dark window loses nothing and feeds everything on resume. *)
let test_condition_down_party_skip () =
  let n = 4 and rounds = 6 in
  let net = Network.create ~backend:(Sched.Async (calm ~seed:2)) ~n ~corrupt:[] () in
  Network.set_condition net
    {
      Sched.c_name = "darken-1";
      c_route = (fun ~now:_ ~round:_ ~src:_ ~dst:_ ~lat -> Sched.Deliver lat);
      c_down = (fun ~now:_ ~round p -> p = 1 && round >= 1 && round < 3);
      c_observe = (fun ~now:_ ~round:_ ~msgs:_ ~corrupt:_ -> ());
    };
  let invoked = ref [] and received = Array.make n [] in
  let handler i ~round ~inbox =
    invoked := (i, round) :: !invoked;
    List.iter
      (fun (m : Repro_net.Wire.msg) ->
        received.(i) <-
          (m.Repro_net.Wire.src, Bytes.to_string m.Repro_net.Wire.payload)
          :: received.(i))
      inbox;
    for dst = 0 to n - 1 do
      if dst <> i then
        Network.send net ~src:i ~dst ~tag:"t"
          (Bytes.of_string (string_of_int round))
    done
  in
  Views.run_lists net ~rounds
    ~extra:(fun ~round:_ -> Network.everyone net)
    (fun i -> Some (handler i));
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "party 1 skipped in dark round %d" r)
        false
        (List.mem (1, r) !invoked))
    [ 1; 2 ];
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "party 1 stepped in round %d" r)
        true
        (List.mem (1, r) !invoked))
    [ 0; 3; 4; 5 ];
  let sort = List.sort compare in
  (* party 1 still receives every send addressed to it (sent rounds 0..4;
     round-5 sends would be read in round 6, past the run) *)
  Alcotest.(check (list (pair int string)))
    "dark window held, replayed on resume: nothing lost"
    (sort
       (List.concat_map
          (fun r ->
            List.map (fun src -> (src, string_of_int r)) [ 0; 2; 3 ])
          [ 0; 1; 2; 3; 4 ]))
    (sort received.(1));
  (* ... while its own dark rounds produced no sends at all *)
  Alcotest.(check (list (pair int string)))
    "a dark party stages nothing"
    (sort
       (List.map (fun r -> (1, string_of_int r)) [ 0; 3; 4 ]
       @ List.concat_map
           (fun r -> List.map (fun src -> (src, string_of_int r)) [ 2; 3 ])
           [ 0; 1; 2; 3; 4 ]))
    (sort received.(0))

(* --- replay of async-recorded logs --- *)

let test_async_replay_roundtrip () =
  let cfg = chaos ~seed:1 in
  let _row, rec_, corrupt =
    Runner.run_recorded ~keep_payloads:true ~cfg
      ~protocol:Runner.This_work_owf ~n:40 ~beta:0.1 ~seed:1 ()
  in
  (* async-recorded sends carry virtual timestamps *)
  let vts = ref 0 and sends = ref 0 in
  Recorder.iter rec_ (function
    | Recorder.Send s ->
      incr sends;
      if s.Recorder.s_vt <> None then incr vts
    | _ -> ());
  Alcotest.(check bool) "log has sends" true (!sends > 0);
  Alcotest.(check int) "every send carries a virtual timestamp" !sends !vts;
  (* JSONL round-trip preserves them, and the replayed network (same
     backend config) reproduces every send byte-identically, vt included *)
  match Replay.events_of_jsonl (Recorder.to_jsonl rec_) with
  | Error e -> Alcotest.failf "async log parse failed: %s" e
  | Ok events -> (
    let parsed_vts =
      List.length
        (List.filter
           (function Recorder.Send s -> s.Recorder.s_vt <> None | _ -> false)
           events)
    in
    Alcotest.(check int) "virtual timestamps survive JSONL" !sends parsed_vts;
    match Replay.self_check ~backend:(Sched.Async cfg) ~n:40 ~corrupt events with
    | Ok k -> Alcotest.(check int) "all sends replayed identical" !sends k
    | Error e -> Alcotest.failf "async replay diverged: %s" e)

(* Lock-step logs stay exactly as before: no virtual timestamps. *)
let test_lockstep_log_has_no_vt () =
  let _row, rec_, _corrupt =
    Runner.run_recorded ~protocol:Runner.This_work_owf ~n:40 ~beta:0.1 ~seed:1
      ()
  in
  Recorder.iter rec_ (function
    | Recorder.Send s ->
      if s.Recorder.s_vt <> None then
        Alcotest.fail "lock-step send stamped with a virtual timestamp"
    | _ -> ())

(* --- the lock-step shortcut --- *)

(* [rounds] rounds of a 16-party protocol whose payloads hash each party's
   inbox, so any change of delivery order changes the transcript. The
   condition, if given, is attached before round [attach_at]. Returns the
   transcript digest, each send's (round, vt), the deliveries seen and the
   network. *)
let shortcut_run ?condition ~attach_at ~rounds () =
  let n = 16 in
  let tap, digest = Runner.digest_sink () in
  let stamps = ref [] in
  let watch : Repro_obs.Event.sink = function
    | Send { round; vt; _ } -> stamps := (round, vt) :: !stamps
    | _ -> ()
  in
  let net = Network.create ~sinks:[ tap; watch ] ~n ~corrupt:[] () in
  let handler i ~round ~inbox =
    let seen =
      String.concat ","
        (List.map
           (fun (m : Repro_net.Wire.msg) ->
             Printf.sprintf "%d/%s" m.src (Bytes.to_string m.payload))
           inbox)
    in
    let h = Digest.to_hex (Digest.string seen) in
    for k = 1 to 3 do
      Network.send net ~src:i ~dst:((i + (5 * k) + round) mod n) ~tag:"s"
        (Bytes.of_string (Printf.sprintf "%d.%d.%s" round k (String.sub h 0 8)))
    done
  in
  let step r =
    Views.run_lists net ~rounds:r
      ~extra:(fun ~round:_ -> Network.everyone net)
      (fun i -> Some (handler i))
  in
  step attach_at;
  Option.iter (Network.set_condition net) condition;
  step (rounds - attach_at);
  let delivered =
    List.fold_left
      (fun acc i -> acc + Repro_net.Metrics.party_msgs_recv (Network.metrics net) i)
      0 (Network.everyone net)
  in
  (digest (), List.rev !stamps, delivered, net)

let test_lockstep_shortcut () =
  let rounds = 6 in
  let d, stamps, delivered, net = shortcut_run ~attach_at:rounds ~rounds () in
  let s = Network.async_stats net in
  Alcotest.(check int) "st_sends counts every delivery" delivered s.Sched.st_sends;
  Alcotest.(check bool) "some mail was delivered" true (delivered > 0);
  Alcotest.(check int) "max latency 1" 1 s.Sched.st_max_latency;
  Alcotest.(check int) "no delivery sampled" 0 (List.length (Sched.deliveries s));
  Alcotest.(check int) "clock = round" (Network.round net) (Network.virtual_time net);
  Alcotest.(check bool) "no send carries vt" true
    (List.for_all (fun (_, vt) -> vt = None) stamps);
  (* Attaching the identity condition mid-run moves the rest of the run
     onto the general path: the transcript stays, and sends are stamped
     with their virtual time from that round on. *)
  let attach_at = 3 in
  let d', stamps', delivered', net' =
    shortcut_run ~condition:Sched.pass_condition ~attach_at ~rounds ()
  in
  Alcotest.(check string) "pass condition mid-run: same transcript" d d';
  Alcotest.(check int) "same deliveries" delivered delivered';
  Alcotest.(check bool) "vt stamped from the attaching round on" true
    (List.for_all
       (fun (round, vt) -> vt = if round < attach_at then None else Some round)
       stamps');
  let s' = Network.async_stats net' in
  Alcotest.(check int) "both paths count every delivery" s.Sched.st_sends
    s'.Sched.st_sends;
  Alcotest.(check int) "only the general path's deliveries are sampled"
    (List.length (List.filter (fun (round, _) -> round >= attach_at) stamps'))
    (List.length (Sched.deliveries s'))

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_heap_order;
    QCheck_alcotest.to_alcotest qcheck_heap_model;
    Alcotest.test_case "heap: push enforces strictly increasing seq" `Quick
      test_heap_seq_contract;
    Alcotest.test_case "heap: popped values are released" `Quick
      test_heap_releases_popped;
    QCheck_alcotest.to_alcotest qcheck_latency_bounds;
    QCheck_alcotest.to_alcotest qcheck_latency_reference;
    QCheck_alcotest.to_alcotest qcheck_delivery_model;
    Alcotest.test_case "pure sync draws nothing from the streams" `Quick
      test_pure_sync_no_draws;
    Alcotest.test_case "edge streams seeded and deterministic" `Quick
      test_edge_streams_seeded;
    Alcotest.test_case "edge table memory linear in edges touched" `Quick
      test_edge_memory_linear;
    Alcotest.test_case "delivery sample: first log_cap, oldest first" `Quick
      test_delivery_sample_cap;
    Alcotest.test_case "post-GST predicate has teeth" `Quick
      test_post_gst_teeth;
    Alcotest.test_case "post-GST bound holds on a real async run" `Quick
      test_post_gst_on_network;
    Alcotest.test_case "executor order oracle pinned (n=64 fan-out)" `Quick
      test_executor_order_pinned;
    Alcotest.test_case "equivocate x delay cell pinned (n=256, seed 3)" `Quick
      test_attack_cell_pinned;
    Alcotest.test_case "async transcript rerun-deterministic" `Quick
      test_async_rerun_deterministic;
    Alcotest.test_case "async transcript pool-independent" `Quick
      test_async_pool_independent;
    Alcotest.test_case "async acceptance cells (chaos knobs, n=256)" `Quick
      test_async_acceptance_cells;
    Alcotest.test_case "condition Defer parks past the round barrier" `Quick
      test_condition_defer_crosses_rounds;
    Alcotest.test_case "condition down-party skip is lossless" `Quick
      test_condition_down_party_skip;
    Alcotest.test_case "async replay round-trip (vt preserved)" `Quick
      test_async_replay_roundtrip;
    Alcotest.test_case "lock-step logs carry no virtual timestamps" `Quick
      test_lockstep_log_has_no_vt;
    Alcotest.test_case "zero-knob lock-step shortcut: bulk stats, no vt" `Quick
      test_lockstep_shortcut;
  ]
