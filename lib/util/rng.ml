(* Deterministic pseudo-random generator used throughout the simulator.

   Built on SplitMix64: a tiny, well-studied mixing function with a 64-bit
   state. Every protocol run is driven by a single seed so that experiments
   and adversarial executions are exactly reproducible.

   A generator is its 8-byte state buffer (little-endian). The stepping
   functions read the state, step it and write it back in place, so the
   64-bit arithmetic stays unboxed and [bits]/[int]/[float] allocate
   nothing. [bits_at] steps the same layout at any offset of a caller's
   buffer, which is how the executor keeps one stream per network edge in
   one flat table: one storage layout, one implementation. *)

type t = Bytes.t

let of_state s =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 s;
  b

let create seed = of_state (Int64.of_int seed)

let copy t = Bytes.copy t

(* SplitMix64 (Steele–Lea–Flood): a state step adds the golden gamma, the
   output is the mixed new state. *)
let[@inline] step s = Int64.add s 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Step the state at [off] in place; the new state. *)
let[@inline] advance buf off =
  let s = step (Bytes.get_int64_le buf off) in
  Bytes.set_int64_le buf off s;
  s

let[@inline] next64 t = mix (advance t 0)

(* Non-negative 62-bit integer. *)
let[@inline] bits_of z = Int64.to_int (Int64.shift_right_logical z 2)

let bits_at buf off = bits_of (mix (advance buf off))

let bits t = bits_at t 0

let state_into t buf off = Bytes.blit t 0 buf off 8

let int_of_bits b bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  b mod bound

let int t bound = int_of_bits (bits t) bound

let bool t = Int64.logand (mix (advance t 0)) 1L = 1L

(* 53 random bits mapped to [0,1): the top 53 of the 64-bit output, i.e.
   a [bits] value without its low 9 bits. *)
let[@inline] float_of_bits b = float_of_int (b lsr 9) /. 9007199254740992.0

let[@inline] float t = float_of_bits (bits t)

let float_lt b p = float_of_bits b < p

let bytes t len =
  let b = Bytes.create len in
  let i = ref 0 in
  while !i < len do
    let v = ref (next64 t) in
    let stop = min len (!i + 8) in
    while !i < stop do
      Bytes.set b !i (Char.chr (Int64.to_int (Int64.logand !v 0xFFL)));
      v := Int64.shift_right_logical !v 8;
      incr i
    done
  done;
  b

(* Derive an independent generator; used to give each party its own stream. *)
let split t = of_state (Int64.mul (next64 t) 0x2545F4914F6CDD1DL)

(* Labels fold into the parent's state byte by byte (FNV-style multiply
   and add); the parent itself is never advanced. *)
let fnv_prime = 1099511628211L

let label_at buf off label =
  let h = ref (Bytes.get_int64_le buf off) in
  for i = 0 to String.length label - 1 do
    h := Int64.add (Int64.mul !h fnv_prime) (Int64.of_int (Char.code label.[i]))
  done;
  Bytes.set_int64_le buf off !h

let label_int_at buf off i =
  if i < 0 then invalid_arg "Rng.label_int_at: negative label";
  let p = ref 1 in
  while !p <= i / 10 do
    p := !p * 10
  done;
  let h = ref (Bytes.get_int64_le buf off) in
  while !p > 0 do
    let digit = Char.code '0' + (i / !p mod 10) in
    h := Int64.add (Int64.mul !h fnv_prime) (Int64.of_int digit);
    p := !p / 10
  done;
  Bytes.set_int64_le buf off !h

let of_label t label =
  (* Deterministic child stream keyed by a string label. *)
  let c = copy t in
  label_at c 0 label;
  c

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* A uniform random subset of [0,n) of the given size, as a sorted list. *)
let subset t ~n ~size =
  if size > n then invalid_arg "Rng.subset: size > n";
  let arr = Array.init n (fun i -> i) in
  shuffle t arr;
  Array.sub arr 0 size |> Array.to_list |> List.sort compare
