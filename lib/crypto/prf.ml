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
   receiver j accepts from i only if j ∈ F_s(i). Deterministic in (s, i). *)
let subset ~key ~index ~n ~size =
  if size >= n then List.init n (fun j -> j) |> List.filter (fun j -> j <> index)
  else begin
    (* One prepared key for every draw; a flag byte per party marks the
       chosen ones. *)
    let key = Hmac.prepare key in
    let label = Bytes.of_string "subset" and me = Bytes.of_string (string_of_int index) in
    let chosen = Bytes.make n '\000' in
    let picked = ref [] and count = ref 0 and ctr = ref 0 in
    while !count < size do
      let d = Hmac.mac_prepared key [ label; me; Bytes.of_string (string_of_int !ctr) ] in
      let j = Hashx.to_int d mod n in
      if j <> index && Bytes.get chosen j = '\000' then begin
        Bytes.set chosen j '\001';
        picked := j :: !picked;
        incr count
      end;
      incr ctr
    done;
    List.sort compare !picked
  end

let subset_mem ~key ~index ~n ~size j =
  List.mem j (subset ~key ~index ~n ~size)
