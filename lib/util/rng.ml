(* Deterministic pseudo-random generator used throughout the simulator.

   Built on SplitMix64: a tiny, well-studied mixing function with a 64-bit
   state. Every protocol run is driven by a single seed so that experiments
   and adversarial executions are exactly reproducible. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* SplitMix64 (Steele–Lea–Flood): a state step adds the golden gamma, the
   output is the mixed new state. Both are shared by the boxed generator
   below and by [bits_at], which steps a state stored unboxed in a
   caller's buffer — one implementation, two storage layouts. *)
let[@inline] step s = Int64.add s 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let next64 t =
  t.state <- step t.state;
  mix t.state

(* Non-negative 62-bit integer. *)
let[@inline] bits_of z = Int64.to_int (Int64.shift_right_logical z 2)

let bits t = bits_of (next64 t)

let bits_at buf off =
  let s = step (Bytes.get_int64_le buf off) in
  Bytes.set_int64_le buf off s;
  bits_of (mix s)

let state_into t buf off = Bytes.set_int64_le buf off t.state

let int_of_bits b bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  b mod bound

let int t bound = int_of_bits (bits t) bound

let bool t = Int64.logand (next64 t) 1L = 1L

(* 53 random bits mapped to [0,1): the top 53 of the 64-bit output, i.e.
   a [bits] value without its low 9 bits. *)
let[@inline] float_of_bits b = float_of_int (b lsr 9) /. 9007199254740992.0

let float t = float_of_bits (bits t)

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
let split t =
  let s = next64 t in
  { state = Int64.mul s 0x2545F4914F6CDD1DL }

let of_label t label =
  (* Deterministic child stream keyed by a string label. *)
  let h = ref t.state in
  String.iter
    (fun c ->
      h := Int64.add (Int64.mul !h 1099511628211L) (Int64.of_int (Char.code c)))
    label;
  { state = !h }

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let choose t lst =
  match lst with
  | [] -> invalid_arg "Rng.choose: empty list"
  | _ -> List.nth lst (int t (List.length lst))

(* A uniform random subset of [0,n) of the given size, as a sorted list. *)
let subset t ~n ~size =
  if size > n then invalid_arg "Rng.subset: size > n";
  let arr = Array.init n (fun i -> i) in
  shuffle t arr;
  Array.sub arr 0 size |> Array.to_list |> List.sort compare
