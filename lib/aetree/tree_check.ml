(* Structural validation of Definition 2.3 / 3.4 properties.

   Returns the list of violated properties (empty = valid). Property (4)
   — all but a 3/log n fraction of leaves on good paths — and the root-good
   property (3) are statements about a corruption set, so they are checked
   against a supplied [corrupt] predicate; the remaining properties are
   purely structural. *)

type violation = string

let check_structure (tree : Tree.t) : violation list =
  let p = Tree.params tree in
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  (* (1) every internal node has <= branching children, >= 1 *)
  for level = 2 to p.Params.height do
    let count = Tree.nodes_at_level tree ~level in
    for idx = 0 to count - 1 do
      let cs = Tree.children tree ~level ~idx in
      if cs = [] then err "node (%d,%d) has no children" level idx;
      if List.length cs > p.Params.branching then
        err "node (%d,%d) has %d > branching children" level idx
          (List.length cs)
    done
  done;
  (* (2) internal committees have the configured size *)
  for level = 2 to p.Params.height do
    for idx = 0 to Tree.nodes_at_level tree ~level - 1 do
      let m = Array.length (Tree.assigned tree ~level ~idx) in
      if m <> min p.Params.n p.Params.committee_size then
        err "node (%d,%d) committee size %d" level idx m
    done
  done;
  (* (5)/(6)/(7): slots partition into leaves of size z*, every slot owned *)
  if Tree.nodes_at_level tree ~level:1 <> p.Params.num_leaves then
    err "leaf count mismatch";
  for k = 0 to p.Params.num_leaves - 1 do
    let lo, hi = Params.leaf_slot_range p k in
    if hi - lo + 1 <> p.Params.leaf_size then err "leaf %d slot range" k
  done;
  (* Def 3.4 (2): per-party assignment balance (within +-1 of slots/n) *)
  let per_party = p.Params.num_slots / p.Params.n in
  for q = 0 to p.Params.n - 1 do
    let c = List.length (Tree.party_slots tree q) in
    if c < per_party || c > per_party + 1 then
      err "party %d owns %d slots (expected ~%d)" q c per_party
  done;
  (* root level has exactly one node *)
  if Tree.nodes_at_level tree ~level:p.Params.height <> 1 then
    err "root level has more than one node";
  List.rev !errs

let check_goodness (tree : Tree.t) ~corrupt : violation list =
  let p = Tree.params tree in
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  (* (3) the root is good *)
  if not (Tree.is_good tree ~corrupt ~level:p.Params.height ~idx:0) then
    err "root committee is not good";
  (* (4) all but 3/log n of the leaves have good paths *)
  let lg = float_of_int (max 2 (Repro_util.Mathx.log2_ceil p.Params.n)) in
  let frac = Tree.good_leaf_fraction tree ~corrupt in
  if frac < 1.0 -. (3.0 /. lg) then
    err "only %.3f of leaves on good paths (need >= %.3f)" frac
      (1.0 -. (3.0 /. lg));
  List.rev !errs

let check tree ~corrupt = check_structure tree @ check_goodness tree ~corrupt
