(* Domain-separated, truncated hashing.

   All higher-level primitives call these helpers instead of raw SHA-256 so
   that (a) every use site carries a domain tag — hashes from different roles
   can never collide across roles — and (b) the security parameter kappa is
   set in one place. We run with kappa = 128 bits (16-byte digests), a toy
   parameter documented in DESIGN.md that keeps large-n sweeps tractable;
   nothing else in the code depends on the digest width. *)

let kappa_bytes = 16

(* H(tag || len(tag) || data), truncated to kappa. *)
let hash_uncached ~tag parts =
  let header = Bytes.of_string tag in
  let len = Bytes.make 1 (Char.chr (String.length tag land 0xFF)) in
  let full = Sha256.digest_list (len :: header :: parts) in
  Bytes.sub full 0 kappa_bytes

(* Bounded digest cache for small inputs.

   Merkle paths and the protocol's small tagged digests recompute the same
   kappa-sized hashes many times per experiment (every committee member
   re-derives the same leaf and node digests), so memoizing pays for itself.
   WOTS chain steps do not go through here: they almost never repeat, and
   [walk_chains] below hashes them directly. Only inputs up to [small_limit]
   bytes are cached, which keeps both key-building cost and memory bounded.
   The table is domain-local, so parallel experiment cells never contend;
   keys encode the full (tag, parts) content unambiguously, so a hit is
   always the correct digest. *)
let cache_limit = 1 lsl 16
let small_limit = 192

let cache : (string, bytes) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 1024)

let clear_cache () = Hashtbl.reset (Domain.DLS.get cache)

let c_hash = Repro_obs.Counters.make "hashx.hash"
(* Hit/miss depend on which domain's table served the call. *)
let c_hit = Repro_obs.Counters.make ~deterministic:false "hashx.cache_hit"
let c_miss = Repro_obs.Counters.make ~deterministic:false "hashx.cache_miss"

(* Occupancy of the calling domain's table only — the pool workers' tables
   are invisible from the caller, hence nondeterministic. *)
let () =
  Repro_obs.Profile.register_probe ~name:"hashx" ~deterministic:false
    (fun () ->
      [
        ("cache_entries", Hashtbl.length (Domain.DLS.get cache));
        ("cache_limit", cache_limit);
      ])

let hash ~tag parts =
  Repro_obs.Counters.bump c_hash;
  let total = List.fold_left (fun acc p -> acc + Bytes.length p) 0 parts in
  if total > small_limit then hash_uncached ~tag parts
  else begin
    (* Unambiguous key: length-prefixed tag, then length-prefixed parts
       (every length fits one byte: tag lengths are small, parts are
       bounded by [small_limit]). *)
    let buf = Buffer.create (String.length tag + total + 8) in
    Buffer.add_char buf (Char.chr (String.length tag land 0xFF));
    Buffer.add_string buf tag;
    List.iter
      (fun p ->
        Buffer.add_char buf (Char.chr (Bytes.length p));
        Buffer.add_bytes buf p)
      parts;
    let key = Buffer.contents buf in
    let c = Domain.DLS.get cache in
    match Hashtbl.find_opt c key with
    | Some d ->
      Repro_obs.Counters.bump c_hit;
      Bytes.copy d
    | None ->
      Repro_obs.Counters.bump c_miss;
      let d = hash_uncached ~tag parts in
      if Hashtbl.length c >= cache_limit then Hashtbl.reset c;
      Hashtbl.add c key d;
      Bytes.copy d
  end

let hash_string ~tag s = hash ~tag [ Bytes.of_string s ]

(* The one-way function of the WOTS chains. Step d of chain c is
   [hash ~tag:"wots-f" [label; v]] with label "c.d", byte for byte: the
   message len(tag) ‖ tag ‖ label ‖ v is at most 28 bytes, one block. The
   35 chains × 15 depths of WOTS (w = 16, kappa = 128) get one padded
   template block each, built once, and a walk of all 35 chains is one
   [Sha256.walk_chains] call. Steps skip the small-input cache, which served
   almost none of them, but each still counts as one [hashx.hash]. *)
let chain_tag = "wots-f"
let chains = 35
let chain_len = 15

let chain_templates =
  assert (kappa_bytes = Sha256.slot);
  Sha256.chain_templates
    (Array.init chains (fun c ->
         Array.init chain_len (fun d ->
             Bytes.of_string
               (String.make 1 (Char.chr (String.length chain_tag))
               ^ chain_tag ^ Printf.sprintf "%d.%d" c d))))

let walk_chains ~from ~upto vals =
  Repro_obs.Counters.add c_hash (Sha256.walk_chains chain_templates ~from ~upto vals)

let equal = Bytes.equal

(* Interpret the first 8 digest bytes as a non-negative int; used to derive
   pseudorandom indices from digests. *)
let to_int d =
  let v = ref 0 in
  for i = 0 to min 7 (Bytes.length d - 1) do
    v := (!v lsl 8) lor Char.code (Bytes.get d i)
  done;
  !v land max_int
