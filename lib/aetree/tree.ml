(* The (n, I)-party almost-everywhere-communication tree (paper Defs. 2.3 and
   3.4): the combinatorial object of King et al. [48] that both the SRDS
   robustness experiment (Fig. 1) and the BA protocol (Fig. 3) are built on.

   Structure: [num_leaves] leaves at level 1, each covering a contiguous
   range of [leaf_size] virtual IDs (slots); internal levels obtained by
   grouping [branching] consecutive nodes, up to a single root at level
   [height]. Every node is assigned a set of parties (its committee); for a
   leaf this is the multiset of parties owning its slots, for internal nodes
   a committee of [committee_size] parties.

   Goodness (Def. 2.3): a node is good if < 1/3 of its assigned parties are
   corrupt; a leaf has a *good path* if every node from it to the root is
   good (the leaf included). *)

type t = {
  params : Params.t;
  slot_party : int array; (* virtual ID -> real party *)
  party_slots : int list array; (* real party -> its virtual IDs, ascending *)
  committees : int array array array;
  (* committees.(l-2).(i) = committee of node i at level l, for l >= 2 *)
  leaves : int array array; (* leaves.(i) = slot owners of leaf i *)
}

let params t = t.params
let slot_party t s = t.slot_party.(s)
let party_slots t p = t.party_slots.(p)

let nodes_at_level t ~level = Params.nodes_at_level t.params ~level

(* Children of node (level, idx) as indices at level-1; level >= 2. *)
let children t ~level ~idx =
  if level < 2 || level > t.params.height then invalid_arg "Tree.children";
  let below = nodes_at_level t ~level:(level - 1) in
  let lo = idx * t.params.branching in
  let hi = min ((idx + 1) * t.params.branching) below in
  if lo >= below then invalid_arg "Tree.children: index out of range";
  List.init (hi - lo) (fun k -> lo + k)

let parent t ~level ~idx =
  if level >= t.params.height then None
  else Some (idx / t.params.branching)

(* Parties assigned to a node: the arrays [finish] built, shared. *)
let assigned t ~level ~idx =
  if level = 1 then t.leaves.(idx) else t.committees.(level - 2).(idx)

let supreme_committee t = assigned t ~level:t.params.height ~idx:0

(* Virtual-ID range covered by the subtree of (level, idx): contiguous by
   construction (Fig. 3's range(v)). *)
let range t ~level ~idx =
  let rec leaf_span level idx =
    if level = 1 then (idx, idx)
    else begin
      let cs = children t ~level ~idx in
      let lo, _ = leaf_span (level - 1) (List.hd cs) in
      let _, hi = leaf_span (level - 1) (List.nth cs (List.length cs - 1)) in
      (lo, hi)
    end
  in
  let leaf_lo, leaf_hi = leaf_span level idx in
  let lo, _ = Params.leaf_slot_range t.params leaf_lo in
  let _, hi = Params.leaf_slot_range t.params leaf_hi in
  (lo, hi)

(* --- construction --- *)

(* Balanced slot->party map: party (s mod n) before shuffling, so every party
   owns num_slots/n slots up to +-1; the seed-keyed shuffle spreads each
   party's copies across leaves. *)
let assignment_of_rng params rng =
  let open Params in
  let slots = Array.init params.num_slots (fun s -> s mod params.n) in
  Repro_util.Rng.shuffle rng slots;
  slots

let committees_of_rng params rng =
  let open Params in
  Array.init
    (max 0 (params.height - 1))
    (fun l ->
      let level = l + 2 in
      Array.init (Params.nodes_at_level params ~level) (fun _ ->
          Array.of_list
            (Repro_util.Rng.subset rng ~n:params.n
               ~size:(min params.n params.committee_size))))

(* A leaf's parties: the owners of its slots, deduplicated, in slot
   order. *)
let leaf_owners params slot_party idx =
  let lo, hi = Params.leaf_slot_range params idx in
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  for s = lo to hi do
    let p = slot_party.(s) in
    if not (Hashtbl.mem seen p) then begin
      Hashtbl.add seen p ();
      acc := p :: !acc
    end
  done;
  Array.of_list (List.rev !acc)

let finish params slot_party committees =
  let party_slots = Array.make params.Params.n [] in
  Array.iteri
    (fun s p -> party_slots.(p) <- s :: party_slots.(p))
    slot_party;
  Array.iteri (fun p ss -> party_slots.(p) <- List.rev ss) party_slots;
  let leaves = Array.init params.Params.num_leaves (leaf_owners params slot_party) in
  { params; slot_party; party_slots; committees; leaves }

let random params rng =
  finish params (assignment_of_rng params rng) (committees_of_rng params rng)

(* Fig. 3 split: the slot assignment (idmap) is fixed by the public setup,
   while committees are elected later; the adversary corrupts in between. *)
let assignment params rng = assignment_of_rng params rng

let build params ~slot_party ~committee_rng =
  if Array.length slot_party <> params.Params.num_slots then
    invalid_arg "Tree.build: slot_party arity";
  finish params (Array.copy slot_party) (committees_of_rng params committee_rng)

let of_seed params seed =
  (* Deterministic tree from a public seed: every party computes the same
     tree locally once the election protocol fixes the seed. *)
  let rng = Repro_util.Rng.create (Repro_crypto.Hashx.to_int seed) in
  random params rng

(* Fully adversary-chosen tree for the Fig. 1 robustness experiment. *)
let make_custom params ~slot_party ~committee_of =
  if Array.length slot_party <> params.Params.num_slots then
    invalid_arg "Tree.make_custom: slot_party arity";
  Array.iter
    (fun p ->
      if p < 0 || p >= params.Params.n then
        invalid_arg "Tree.make_custom: party out of range")
    slot_party;
  let committees =
    Array.init
      (max 0 (params.Params.height - 1))
      (fun l ->
        let level = l + 2 in
        Array.init (Params.nodes_at_level params ~level) (fun idx ->
            committee_of ~level ~idx))
  in
  finish params slot_party committees

(* --- goodness --- *)

let is_good t ~corrupt ~level ~idx =
  let members = assigned t ~level ~idx in
  let bad = Array.fold_left (fun a p -> if corrupt p then a + 1 else a) 0 members in
  3 * bad < Array.length members

let has_good_path t ~corrupt leaf_idx =
  let rec go level idx =
    is_good t ~corrupt ~level ~idx
    &&
    if level = t.params.height then true
    else
      match parent t ~level ~idx with
      | Some pidx -> go (level + 1) pidx
      | None -> true
  in
  go 1 leaf_idx

let good_leaf_fraction t ~corrupt =
  let total = t.params.num_leaves in
  let good = ref 0 in
  for k = 0 to total - 1 do
    if has_good_path t ~corrupt k then incr good
  done;
  float_of_int !good /. float_of_int total

(* Def. 3.4 / [13]: a party is *connected* if a strict majority of the leaf
   nodes it is assigned to have good paths. Connected parties are the ones
   guaranteed to receive supreme-committee messages through the tree. *)
let party_connected t ~corrupt p =
  let leaves =
    List.map (fun s -> Params.leaf_of_slot t.params s) t.party_slots.(p)
    |> List.sort_uniq compare
  in
  let good = List.length (List.filter (has_good_path t ~corrupt) leaves) in
  2 * good > List.length leaves

let connected_fraction t ~corrupt =
  let honest = List.filter (fun p -> not (corrupt p)) (List.init t.params.n (fun p -> p)) in
  match honest with
  | [] -> 0.0
  | _ ->
    let c = List.length (List.filter (party_connected t ~corrupt) honest) in
    float_of_int c /. float_of_int (List.length honest)
