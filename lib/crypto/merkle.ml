(* Merkle hash trees.

   Used by the Merkle (many-time) signature scheme and as the binding digest
   structure inside commitments. Leaves are domain-separated from internal
   nodes to rule out second-preimage splicing between levels. *)

type tree = {
  leaves : bytes array; (* hashed leaves *)
  levels : bytes array array; (* levels.(0) = hashed leaves, last = [|root|] *)
}

let c_leaf = Repro_obs.Counters.make "merkle.leaf"
let c_node = Repro_obs.Counters.make "merkle.node"

let hash_leaf data =
  Repro_obs.Counters.bump c_leaf;
  Hashx.hash ~tag:"merkle-leaf" [ data ]

let hash_node l r =
  Repro_obs.Counters.bump c_node;
  Hashx.hash ~tag:"merkle-node" [ l; r ]

let build data_leaves =
  if Array.length data_leaves = 0 then invalid_arg "Merkle.build: empty";
  let level0 = Array.map hash_leaf data_leaves in
  let rec go acc level =
    if Array.length level = 1 then List.rev (level :: acc)
    else begin
      let n = Array.length level in
      let parent =
        Array.init (Repro_util.Mathx.ceil_div n 2) (fun i ->
            let l = level.(2 * i) in
            (* Odd node promoted by pairing with itself; fine for a fixed,
               publicly known leaf count. *)
            let r = if (2 * i) + 1 < n then level.((2 * i) + 1) else l in
            hash_node l r)
      in
      go (level :: acc) parent
    end
  in
  { leaves = level0; levels = Array.of_list (go [] level0) }

let root t = t.levels.(Array.length t.levels - 1).(0)

let num_leaves t = Array.length t.leaves

(* Authentication path: sibling digest at each level, bottom-up. *)
let path t index =
  if index < 0 || index >= num_leaves t then invalid_arg "Merkle.path";
  let rec go acc level_idx pos =
    let level = t.levels.(level_idx) in
    if Array.length level = 1 then List.rev acc
    else begin
      let sib = if pos land 1 = 0 then pos + 1 else pos - 1 in
      let sib_hash =
        if sib < Array.length level then level.(sib) else level.(pos)
      in
      go (sib_hash :: acc) (level_idx + 1) (pos / 2)
    end
  in
  go [] 0 index

let verify_path ~root:r ~index ~leaf_data path =
  let rec go h pos = function
    | [] -> Hashx.equal h r
    | sib :: rest ->
      let h' = if pos land 1 = 0 then hash_node h sib else hash_node sib h in
      go h' (pos / 2) rest
  in
  go (hash_leaf leaf_data) index path

let encode_path b p = Repro_util.Encode.list b Repro_util.Encode.bytes p
let decode_path src = Repro_util.Encode.r_list src Repro_util.Encode.r_bytes
