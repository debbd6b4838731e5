(* Unit costs of layer primitives, timed from outside the program as the
   best of several batches (the minimum batch is robust to scheduler noise
   on a shared machine), the way bench/sha_speed.ml times SHA-256. Each
   explains one layer's share: count x unit cost / wall is that layer's
   busy share, a cross-check on the span attribution. *)

module Sha256 = Repro_crypto.Sha256
module Wots = Repro_crypto.Wots
module Network = Repro_net.Network
module Sched = Repro_net.Sched
module Rng = Repro_util.Rng

(* Seconds per call of [f], best batch of [iters] calls out of [batches]. *)
let per_call ?(warm = true) ?(batches = 5) ~iters f =
  if warm then ignore (f ());
  let best = ref infinity in
  for _ = 1 to batches do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best /. float_of_int iters

let keygen_per_slot (module S : Repro_core.Srds_intf.SCHEME) ~slots =
  let rng = Rng.create 9 in
  let pp, master = S.setup rng ~n:slots in
  per_call ~batches:3 ~iters:1 (fun () ->
      for i = 0 to slots - 1 do
        ignore (S.keygen pp master (Rng.of_label rng (string_of_int i)) ~index:i)
      done)
  /. float_of_int slots

(* The bench harness's B3/B4 fixture: Aggregate1 + Aggregate2 + Verify over
   256 base signatures on one message. *)
let agg_verify (module S : Repro_core.Srds_intf.SCHEME) =
  let n = 256 in
  let rng = Rng.create 9 in
  let pp, master = S.setup rng ~n in
  let keys = Array.init n (fun i -> S.keygen pp master rng ~index:i) in
  let vks = Array.map fst keys in
  let msg = Bytes.of_string "bench-msg" in
  let sigs =
    List.filter_map (fun i -> S.sign pp (snd keys.(i)) ~index:i ~msg) (List.init n Fun.id)
  in
  per_call ~batches:3 ~iters:1 (fun () ->
      match S.aggregate2 pp ~msg (S.aggregate1 pp ~vks ~msg sigs) with
      | Some sg -> S.verify pp ~vks ~msg sg
      | None -> false)

(* Substrate cost per message: every party of n = 1024 forwards to 8 peers
   each round it hears something, for 50 rounds, through the sparse
   active-set stepper. *)
let fanout_ns_per_msg backend =
  let n = 1024 and rounds = 50 and degree = 8 in
  let payload = Bytes.make 32 'm' in
  let msgs = ref 0 in
  let run () =
    let net = Network.create ~backend ~n ~corrupt:[] () in
    let handler i ~round ~inbox =
      if round = 0 || inbox <> [] then
        for k = 1 to degree do
          incr msgs;
          Network.send net ~src:i ~dst:((i + (k * 97)) mod n) ~tag:"fan" payload
        done
    in
    Network.run_active net ~rounds
      ~extra:(fun ~round -> if round = 0 then List.init n Fun.id else [])
      (fun i -> Some (handler i))
  in
  (* The first run warms up and counts one run's messages. *)
  run ();
  let per_run = !msgs in
  per_call ~warm:false ~batches:2 ~iters:1 run /. float_of_int per_run *. 1e9

let heap_push_pop_ns () =
  let depth = 1 lsl 16 in
  let h = Sched.Heap.create () in
  let rng = Rng.create 3 in
  for seq = 1 to depth do
    Sched.Heap.push h ~time:(Rng.int rng 1_000_000) ~seq ()
  done;
  let seq = ref depth in
  per_call ~iters:100_000 (fun () ->
      incr seq;
      Sched.Heap.push h ~time:(Rng.int rng 1_000_000) ~seq:!seq ();
      Sched.Heap.pop h)
  *. 1e9

let measure ~seed =
  let data4k = Bytes.make 4096 'x' and data64 = Bytes.make 64 'x' in
  let digest = Repro_crypto.Hashx.hash_string ~tag:"bench" "message" in
  let vk, sk = Wots.keygen (Bytes.of_string "bench-seed") in
  let sg = Wots.sign sk digest in
  let msg = { Repro_net.Wire.src = 17; dst = 912; tag = "aecomm/y/3"; payload = Bytes.make 64 'p' } in
  [
    ("crypto.sha256_4k_us", per_call ~iters:200 (fun () -> Sha256.digest data4k) *. 1e6);
    ("crypto.sha256_64b_ns", per_call ~iters:50_000 (fun () -> Sha256.digest data64) *. 1e9);
    ("crypto.wots_sign_us", per_call ~iters:50 (fun () -> Wots.sign sk digest) *. 1e6);
    ("crypto.wots_verify_us", per_call ~iters:50 (fun () -> Wots.verify_uncached vk digest sg) *. 1e6);
    ("srds.owf_keygen_us", keygen_per_slot Workloads.owf ~slots:256 *. 1e6);
    ("srds.snark_keygen_us", keygen_per_slot Workloads.snark ~slots:64 *. 1e6);
    ("srds.owf_agg_verify_ms", agg_verify Workloads.owf *. 1e3);
    ("srds.snark_agg_verify_ms", agg_verify Workloads.snark *. 1e3);
    ( "encode.wire_roundtrip_ns",
      per_call ~iters:100_000 (fun () -> Repro_net.Wire.decode (Repro_net.Wire.encode msg)) *. 1e9 );
    ("net.ns_per_msg", fanout_ns_per_msg Sched.Sparse);
    ("sched.ns_per_msg", fanout_ns_per_msg (Sched.Async (Repro_core.Runner.default_chaos ~seed)));
    ("sched.heap_push_pop_ns", heap_push_pop_ns ());
  ]
