(* Pseudorandom function family built from HMAC.

   Two distinct roles in the reproduction:
   - key/seed expansion for WOTS and Merkle signatures;
   - the PRF F_s of the BA protocol's final round (Fig. 3, steps 7-8):
     F_s(i) selects the polylog-size set of parties that party i contacts. *)

type key = bytes

let of_seed seed = seed

let eval ~key data = Hmac.mac ~key data

let eval_parts ~key parts = Hmac.mac_parts ~key parts

(* Counter-mode expansion of a seed into [len] pseudorandom bytes. *)
let expand ~key ~label len =
  let buf = Buffer.create len in
  let counter = ref 0 in
  while Buffer.length buf < len do
    let block =
      eval_parts ~key
        [ Bytes.of_string label; Bytes.of_string (string_of_int !counter) ]
    in
    Buffer.add_bytes buf block;
    incr counter
  done;
  Bytes.sub (Buffer.to_bytes buf) 0 len

let to_int ~key data bound =
  if bound <= 0 then invalid_arg "Prf.to_int: bound";
  Hashx.to_int (eval ~key data) mod bound

(* F_s(i): a pseudorandom size-[size] subset of [0,n) \ {i}, sorted.
   Fig. 3 step 7: party i sends its certified output to F_s(i); step 8: a
   receiver j accepts from i only if j ∈ F_s(i). Deterministic in (s, i).

   Draw [ctr] is the party [Hashx.to_int (F_s("subset" ‖ i ‖ ctr)) mod n],
   kept when it is new and not i, until [size] are kept. The draws are
   hashed in batches, one C call each ([Hmac.mac_tails_into]): a batch
   holds about the expected number of draws still needed, so one or two
   batches usually suffice, and whatever of the last one follows the last
   kept draw is never read. A flag byte per party marks the chosen ones, and reading
   the flags in order lists them sorted. *)

(* The decimal digits of [v >= 0] at [pos] of [dst]; returns their count. *)
let write_decimal dst pos v =
  let digits = ref 1 and r = ref (v / 10) in
  while !r > 0 do
    incr digits;
    r := !r / 10
  done;
  let r = ref v in
  for k = !digits - 1 downto 0 do
    Bytes.set dst (pos + k) (Char.unsafe_chr (48 + (!r mod 10)));
    r := !r / 10
  done;
  !digits

(* [Hashx.to_int] of the draw at [off]: its first 8 bytes, big-endian. *)
let draw_at out off =
  let v = ref 0 in
  for b = 0 to 7 do
    v := (!v lsl 8) lor Bytes.get_uint8 out (off + b)
  done;
  !v land max_int

(* Expected draws to keep [need] more of [free] parties not yet chosen,
   n (H(free) - H(free - need)), and two more. *)
let batch_size ~n ~free ~need =
  let e = float_of_int n *. (log (float_of_int free +. 0.5) -. log (float_of_int (free - need) +. 0.5)) in
  min 4096 (max need (int_of_float e + 2))

let subset ~key ~index ~n ~size =
  if size >= n then Array.of_list (List.filter (fun j -> j <> index) (List.init n Fun.id))
  else begin
    let key = Hmac.prepare key in
    let prefix = "subset" ^ string_of_int index in
    let plen = String.length prefix in
    let chosen = Bytes.make n '\000' in
    let count = ref 0 and ctr = ref 0 in
    let free = if index >= 0 && index < n then n - 1 else n in
    while !count < size do
      let first = !ctr and batch = batch_size ~n ~free:(free - !count) ~need:(size - !count) in
      let tails =
        Sha256.tails_init batch (fun k dst pos ->
            Bytes.blit_string prefix 0 dst pos plen;
            plen + write_decimal dst (pos + plen) (first + k))
      in
      let out = Bytes.create (Sha256.slot * batch) in
      Hmac.mac_tails_into key tails out;
      let k = ref 0 in
      while !count < size && !k < batch do
        let j = draw_at out (Sha256.slot * !k) mod n in
        if j <> index && Bytes.get chosen j = '\000' then begin
          Bytes.set chosen j '\001';
          incr count
        end;
        incr k
      done;
      ctr := first + batch
    done;
    (* the chosen parties in ascending order *)
    let picked = Array.make (max 0 size) 0 and k = ref 0 in
    for j = 0 to n - 1 do
      if Bytes.get chosen j <> '\000' then begin
        picked.(!k) <- j;
        incr k
      end
    done;
    picked
  end

let mem sorted j = Repro_util.Mathx.sorted_index sorted j >= 0

(* One run's F_s(i) by (s, i): the boost senders fan out to a subset and
   every receiver's step-8 filter reads the same array back. *)
type subsets = { sn : int; ssize : int; memo : (bytes * int, int array) Hashtbl.t }

let subsets ~n ~size = { sn = n; ssize = size; memo = Hashtbl.create 64 }

let subset_of t ~key ~index =
  match Hashtbl.find_opt t.memo (key, index) with
  | Some s -> s
  | None ->
    let s = subset ~key ~index ~n:t.sn ~size:t.ssize in
    Hashtbl.add t.memo (Bytes.copy key, index) s;
    s
