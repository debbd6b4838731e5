(* Standalone network-substrate probe, a sibling of sha_speed.ml: ns per
   message through the executor at zero knobs (its lock-step shortcut) and
   under [Runner.default_chaos], on two fan-out shapes, then ns per
   push+pop of the event queue at two depths. The shapes bracket the executor's per-edge state:

   - n = 1024, degree 8: 8,192 directed edges, the ledger's
     [sched.ns_per_msg] cell;
   - n = 256, degree 160: 40,960 edges, about as many as an owf n = 256
     cell under chaos touches.

   Each figure is the best of several timed batches (robust to scheduler
   noise on a shared machine). Run with [dune exec bench/net_speed.exe]. *)

module Network = Repro_net.Network
module Sched = Repro_net.Sched
module Rng = Repro_util.Rng

let best_of ~batches f =
  let best = ref infinity in
  for _ = 1 to batches do
    let t0 = Unix.gettimeofday () in
    f ();
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

(* Every party that heard something forwards to [degree] peers; party i's
   k-th peer is i + 97k mod n (distinct for k < n, as 97 is odd and n a
   power of two). *)
let fanout_ns_per_msg backend ~n ~degree ~rounds =
  let payload = Bytes.make 32 'm' in
  let msgs = ref 0 in
  let run () =
    let net = Network.create ~backend ~n ~corrupt:[] () in
    let handler i ~round inbox =
      if round = 0 || Repro_net.Inbox.length inbox > 0 then
        for k = 1 to degree do
          incr msgs;
          Network.send net ~src:i ~dst:((i + (k * 97)) mod n) ~tag:"fan" payload
        done
    in
    Network.run_slices net ~rounds
      ~extra:(fun ~round -> if round = 0 then List.init n Fun.id else [])
      (fun i -> Some (handler i))
  in
  run ();
  let per_run = !msgs in
  best_of ~batches:3 run /. float_of_int per_run *. 1e9

(* Push one event at a random time and pop the earliest, on a queue kept
   at [depth] pending events. *)
let queue_ns ~depth =
  let h = Sched.Heap.create () in
  let rng = Rng.create 3 in
  for seq = 1 to depth do
    Sched.Heap.push h ~time:(Rng.int rng 1_000_000) ~seq ()
  done;
  let seq = ref depth and iters = 200_000 in
  best_of ~batches:5 (fun () ->
      for _ = 1 to iters do
        incr seq;
        Sched.Heap.push h ~time:(Rng.int rng 1_000_000) ~seq:!seq ();
        Sched.Heap.take h
      done)
  /. float_of_int iters *. 1e9

let () =
  let backends =
    [
      ("async zero-knob", Sched.Async Sched.default_async);
      ("async chaos", Sched.Async (Repro_core.Runner.default_chaos ~seed:1));
    ]
  in
  List.iter
    (fun (n, degree, rounds) ->
      List.iter
        (fun (name, backend) ->
          Printf.printf "n=%-4d degree=%-3d %-16s %7.0f ns/msg\n%!" n degree name
            (fanout_ns_per_msg backend ~n ~degree ~rounds))
        backends)
    [ (1024, 8, 50); (256, 160, 10) ];
  List.iter
    (fun depth ->
      Printf.printf "queue push+pop, depth %-6d %7.0f ns\n%!" depth (queue_ns ~depth))
    [ 4096; 65536 ]
