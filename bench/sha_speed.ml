(* Standalone SHA-256 throughput probe: the one number the multicore /
   hot-path work optimizes for. Prints MB/s over 64-byte and 4 KiB inputs
   so regressions in either the compression kernel or the streaming glue show
   up, then the two kernels built on it: ns per WOTS chain step (a keygen
   walks 35 chains of 15 steps) and HMAC over a prepared vs an unprepared
   key. Then the kernels this process selected, ns per raw compression for
   each kernel the CPU can run, and per kernel the hashing of one WOTS
   keygen, sign and verify and of one HMAC chain start, so a host without
   the SHA extensions or AVX-512 shows what its fallback costs. Last, the
   lane count below which the batched calls leave the 16-lane kernel, next
   to the break-even measured here. Each figure is the best of several
   timed batches — the minimum batch time is robust to scheduler noise on a
   shared box. *)

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

open Repro_crypto

let kernels =
  ("portable", Sha256.Kernel.portable)
  :: (match Sha256.Kernel.sha_ni with Some k -> [ ("sha-ni", k) ] | None -> [])
  @ match Sha256.Kernel.avx512 with Some k -> [ ("avx512", k) ] | None -> []

(* The production mix: what [Wots] runs. *)
let selected =
  {
    Sha256.Kernel.portable with
    walk_chains = (fun t ~from ~upto v -> ignore (Sha256.walk_chains t ~from ~upto v));
    nested_into = Sha256.nested_into;
  }

let () =
  let open Sha256 in
  Printf.printf "kernel in use: %s (batched calls: %s)\n" Kernel.name
    (if Option.is_none Kernel.avx512 then Kernel.name else "avx512");
  let h = Array.make 8 0x5be0cd19 and block = Bytes.make 64 'b' in
  let per_compression f =
    best_per_call ~iters:200_000 ~batches:8 (fun () -> f h block 0) *. 1e9
  in
  List.iter
    (fun (name, (k : Kernel.t)) ->
      if name = "avx512" then
        Printf.printf "compress %-9s %6.0f ns per 16 lanes\n" (name ^ ":")
          (best_per_call ~iters:50_000 ~batches:8 (fun () -> k.compress h block 0) *. 1e9)
      else Printf.printf "compress %-9s %6.0f ns\n" (name ^ ":") (per_compression k.compress))
    kernels;
  if Option.is_none Kernel.sha_ni then
    print_endline "compress sha-ni:    n/a (no SHA extensions on this CPU)";
  if Option.is_none Kernel.avx512 then
    print_endline "compress avx512:    n/a (no AVX-512F on this CPU or OS)"

(* The hashing of WOTS keygen, sign and verify composed from one kernel's
   two batched calls, as [Wots] composes them from the selected kernel's:
   the seed's HMAC pads, the 35 chain starts, one walk of the 35 chains,
   and for keygen and verify the vk hash. *)
let chains = Wots.num_chains
let depth = Wots.chain_depth

let templates =
  Sha256.chain_templates
    (Array.init chains (fun c ->
         Array.init depth (fun d -> Bytes.of_string (Printf.sprintf "\006wots-f%d.%d" c d))))

let start_tails =
  Sha256.tails (Array.init chains (fun i -> Bytes.of_string ("wots-chain" ^ string_of_int i)))

let pads seed =
  let key = Bytes.make 64 '\000' in
  Bytes.blit seed 0 key 0 (Bytes.length seed);
  let pad byte =
    Sha256.midstate_of_block (Bytes.map (fun c -> Char.chr (Char.code c lxor byte)) key)
  in
  (pad 0x36, pad 0x5C)

(* The depth each chain signs at: 32 nibbles of the digest, then the
   3-nibble checksum of their distances to the top. *)
let chunks digest =
  let b = Bytes.create chains and sum = ref 0 in
  for i = 0 to 31 do
    let byte = Bytes.get_uint8 digest (i / 2) in
    let c = if i land 1 = 0 then byte lsr 4 else byte land 0xF in
    Bytes.set_uint8 b i c;
    sum := !sum + depth - c
  done;
  for i = 0 to 2 do
    Bytes.set_uint8 b (32 + i) ((!sum lsr (4 * i)) land 0xF)
  done;
  b

let bottoms = Bytes.make chains '\000'
let tops = Bytes.make chains (Char.chr depth)

let () =
  let rng = Random.State.make [| 7 |] in
  let seeds =
    Array.init 64 (fun _ -> Bytes.init 16 (fun _ -> Char.chr (Random.State.int rng 256)))
  in
  let digests = Array.map (fun s -> Bytes.sub (Sha256.digest s) 0 16) seeds in
  let next = ref 0 in
  let pick a = a.(!next land 63) in
  let vals = Bytes.create (16 * chains) in
  print_endline "per kernel          keygen    sign  verify  (us)   chain start (ns)";
  List.iter
    (fun (name, (k : Sha256.Kernel.t)) ->
      let start () =
        incr next;
        let inner, outer = pads (pick seeds) in
        k.nested_into ~inner ~outer start_tails vals
      in
      let keygen () =
        start ();
        k.walk_chains templates ~from:bottoms ~upto:tops vals;
        ignore (Hashx.hash ~tag:"wots-vk" [ vals ])
      and sign () =
        start ();
        k.walk_chains templates ~from:bottoms ~upto:(chunks (pick digests)) vals
      and verify () =
        incr next;
        k.walk_chains templates ~from:(chunks (pick digests)) ~upto:tops vals;
        ignore (Hashx.hash ~tag:"wots-vk" [ vals ])
      in
      let inner, outer = pads (pick seeds) in
      let us f = best_per_call ~iters:300 ~batches:8 f *. 1e6 in
      let kg = us keygen and sg = us sign and vf = us verify in
      let cs =
        best_per_call ~iters:3000 ~batches:8 (fun () ->
            k.nested_into ~inner ~outer start_tails vals)
        *. 1e9 /. float_of_int chains
      in
      Printf.printf "  %-14s %7.1f %7.1f %7.1f        %6.0f\n" name kg sg vf cs)
    (kernels @ [ ("selected", selected) ])

(* The break-even: ns for [lanes] chains of 15 steps on one 16-lane pass
   against the single-block kernel, for lanes = 1..16. A pass costs the
   same however many lanes it fills, so the break-even is the median pass
   over the single-block cost of one chain (its 16-chain time / 16). *)
let () =
  match Sha256.Kernel.avx512 with
  | None -> print_endline "avx512 crossover: n/a (no AVX-512F on this CPU or OS)"
  | Some zmm ->
    let one, one_name =
      match Sha256.Kernel.sha_ni with
      | Some k -> (k, "sha-ni")
      | None -> (Sha256.Kernel.portable, "portable")
    in
    let vals = Bytes.make (16 * chains) 'v' in
    let ns (k : Sha256.Kernel.t) lanes =
      let upto = Bytes.init chains (fun c -> if c < lanes then Char.chr depth else '\000') in
      best_per_call ~iters:2000 ~batches:8 (fun () ->
          k.walk_chains templates ~from:bottoms ~upto vals)
      *. 1e9
    in
    Printf.printf "lanes  avx512 pass  %s (ns, 15 steps per chain)\n" one_name;
    let rows =
      List.init 16 (fun i ->
          let lanes = i + 1 in
          let z = ns zmm lanes and s = ns one lanes in
          Printf.printf "  %2d   %10.0f  %10.0f\n" lanes z s;
          (z, s))
    in
    let pass = List.nth (List.sort compare (List.map fst rows)) 8 in
    let per_chain = snd (List.nth rows 15) /. 16. in
    Printf.printf
      "avx512 crossover: %d lanes in use, break-even %.1f lanes measured here \
       (median pass %.0f ns / %.0f ns per chain on %s)\n"
      Sha256.Kernel.avx512_min_lanes (pass /. per_chain) pass per_chain one_name
