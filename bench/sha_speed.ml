(* Standalone SHA-256 throughput probe: the one number the multicore /
   hot-path work optimizes for. Prints MB/s over 64-byte and 4 KiB inputs
   so regressions in either the compression kernel or the streaming glue show
   up, then the two kernels built on it: ns per WOTS chain step (a keygen
   walks 35 chains of 15 steps) and HMAC over a prepared vs an unprepared
   key. Last, the compression kernel this process selected and ns per raw
   compression for each kernel the CPU can run, so a host without the SHA
   extensions shows what the portable fallback costs. Each figure is the
   best of several timed batches — the minimum batch time is robust to
   scheduler noise on a shared box. *)

(* Seconds per call of [f], best of [batches] batches of [iters] calls. *)
let best_per_call ~iters ~batches f =
  for _ = 1 to 1000 do
    f ()
  done;
  let best = ref infinity in
  for _ = 1 to batches do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best /. float_of_int iters

let throughput ~len ~iters ~batches =
  let data = Bytes.init len (fun i -> Char.chr (i land 0xFF)) in
  let s =
    best_per_call ~iters ~batches (fun () ->
        ignore (Repro_crypto.Sha256.digest data))
  in
  float_of_int len /. s /. 1e6

let () =
  let mbs64 = throughput ~len:64 ~iters:100_000 ~batches:8 in
  let mbs4k = throughput ~len:4096 ~iters:5_000 ~batches:8 in
  Printf.printf "sha256 64B:   %8.1f MB/s\n" mbs64;
  Printf.printf "sha256 4KiB:  %8.1f MB/s\n" mbs4k;
  let open Repro_crypto in
  (* A fresh seed per call, as every slot's keygen has: a repeated seed would
     time cache hits on any memo above the compression function. A keygen is
     35 x 15 chain steps plus 35 chain starts and the vk hash. *)
  let calls = ref 0 in
  let keygen =
    best_per_call ~iters:200 ~batches:8 (fun () ->
        incr calls;
        ignore (Wots.keygen (Bytes.of_string (string_of_int !calls))))
  in
  Printf.printf "wots keygen:  %8.1f us  = %.0f ns per chain step\n" (keygen *. 1e6)
    (keygen *. 1e9 /. float_of_int (Wots.num_chains * Wots.chain_depth));
  let key = Bytes.make 32 'k' in
  let parts = [ Bytes.of_string "rel-tag"; Bytes.make 48 's' ] in
  let prepared = Hmac.prepare key in
  let unprep =
    best_per_call ~iters:50_000 ~batches:8 (fun () -> ignore (Hmac.mac_parts ~key parts))
  in
  let prep =
    best_per_call ~iters:50_000 ~batches:8 (fun () ->
        ignore (Hmac.mac_prepared prepared parts))
  in
  Printf.printf "hmac mac_parts, unprepared key: %6.0f ns\n" (unprep *. 1e9);
  Printf.printf "hmac mac_prepared:              %6.0f ns\n" (prep *. 1e9)

let () =
  let open Repro_crypto.Sha256 in
  Printf.printf "kernel in use: %s\n" Kernel.name;
  let h = Array.make 8 0x5be0cd19 and block = Bytes.make 64 'b' in
  let per_compression f =
    best_per_call ~iters:200_000 ~batches:8 (fun () -> f h block 0) *. 1e9
  in
  Printf.printf "compress portable:  %6.0f ns\n" (per_compression Kernel.portable.compress);
  match Kernel.sha_ni with
  | Some k -> Printf.printf "compress sha-ni:    %6.0f ns\n" (per_compression k.compress)
  | None -> print_endline "compress sha-ni:    n/a (no SHA extensions on this CPU)"
