(* Realization of the signature-aggregation functionality f_aggr-sig
   (paper Sec. 3.1) inside one tree node's committee.

   The functionality takes each member's set of received signatures,
   determines the set backed by the committee, aggregates it, and hands the
   same aggregated signature to every member. The paper realizes it with
   Damgard-Ishai MPC; since neither of our Aggregate2 instances needs
   secret randomness, a robust-correctness realization suffices (see
   DESIGN.md substitutions):

     1. each member locally filters its received set — Aggregate1 plus the
        Fig. 3 step-5c range checks against the node's children — and
        deterministically computes a candidate aggregate;
     2. the committee runs {!Repro_consensus.Committee} agreement on the
        candidates, with external validity "partially verifies and stays
        within this node's virtual-ID range".

   Child committees have already agreed on their outputs, so honest
   members' candidates normally coincide and agreement converges on the
   first phase; when corrupt children equivocate, the agreed value is still
   some honest member's validly-aggregated candidate.

   Simulation cost: step 1 and the validity check are pure functions of a
   member's inputs, so one {!shared} table per tree level computes each
   candidate once per distinct member input and each verdict once per
   distinct payload. A committee of m members with one input costs one
   aggregation, not m. Inside a node, Aggregate1's per-input half
   ([S.admit]: partial verification and, for the SNARK scheme, the PCD
   promotion of a base signature) runs once per distinct (received
   signature, message): a node's candidates share each admission, and so
   do the k identical copies of a child aggregate that its k forwarders
   send. A candidate then costs only [S.select] and [S.aggregate2]. The
   protocol, its messages and its outputs are unchanged. *)

module Committee = Repro_consensus.Committee
module Params = Repro_aetree.Params
module Tree = Repro_aetree.Tree

module Make (S : Srds_intf.SCHEME) = struct
  module W = Srds_intf.Wire (S)

  (* Fig. 3 step 5c: a signature entering a node must fit a child's range
     (or, at a leaf, be a base signature of one of the leaf's own slots). *)
  let range_ok tree ~level ~idx sg =
    let params = Tree.params tree in
    let lo, hi = (S.min_index sg, S.max_index sg) in
    if level = 1 then begin
      let rlo, rhi = Params.leaf_slot_range params idx in
      lo = hi && lo >= rlo && lo <= rhi
    end
    else
      List.exists
        (fun child ->
          let clo, chi = Tree.range tree ~level:(level - 1) ~idx:child in
          lo >= clo && hi <= chi)
        (Tree.children tree ~level ~idx)

  let node_range_ok tree ~level ~idx sg =
    let nlo, nhi = Tree.range tree ~level ~idx in
    S.min_index sg >= nlo && S.max_index sg <= nhi

  (* The members' shared pure work at one tree level. The functionality
     hands every member the same aggregate, and members holding the same
     inputs compute the same candidate, so the simulation computes each
     candidate once per distinct [(idx, msg, raw)] — [raw] in received
     order, which Aggregate1's tie-break reads — and each [valid] verdict
     once per distinct [(idx, msg, payload)]. The level's constant inputs
     are bound here, so a key holds every input that can differ between
     members. A hit returns the bytes a fresh computation would produce:
     Aggregate1/2, WOTS and the PCD oracle are deterministic. Create one per
     level and drop it when the level ends. *)
  module Raw = Hashtbl.Make (struct
    type t = bytes

    let equal a b = a == b || Bytes.equal a b
    let hash = Repro_util.Encode.fingerprint
  end)

  (* One distinct received signature of the current node: [sg] is its
     decode when that succeeded and passed the step-5c range check, and
     [by_msg] its admission under each message a member asked for (members'
     messages differ where the pair was equivocated). *)
  type admission = {
    sg : S.signature option;
    mutable by_msg : (bytes * S.signature option) list;
  }

  type shared = {
    pp : S.pp;
    vks : bytes array;
    tree : Tree.t;
    level : int;
    candidates : (int * bytes * bytes list, bytes) Hashtbl.t;
    verdicts : (int * bytes * bytes, bool) Hashtbl.t;
    mutable node : int; (* the node whose candidates are being computed *)
    admissions : admission Raw.t; (* its received signatures, by raw bytes *)
  }

  let shared ~pp ~vks ~tree ~level =
    {
      pp;
      vks;
      tree;
      level;
      candidates = Hashtbl.create 64;
      verdicts = Hashtbl.create 64;
      node = -1;
      admissions = Raw.create 16;
    }

  let memo tbl key f =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
      let v = f () in
      Hashtbl.add tbl key v;
      v

  (* [raw] as Aggregate1's per-input half sees it for node [idx]: decoded,
     range-checked and admitted under [msg], each at most once per node.
     The node's table is dropped when the next node's candidates begin. *)
  let admitted sh ~idx ~msg raw =
    if sh.node <> idx then begin
      sh.node <- idx;
      Raw.reset sh.admissions
    end;
    let a =
      match Raw.find sh.admissions raw with
      | a -> a
      | exception Not_found ->
        let sg =
          match W.of_bytes raw with
          | Some sg when range_ok sh.tree ~level:sh.level ~idx sg -> Some sg
          | _ -> None
        in
        let a = { sg; by_msg = [] } in
        Raw.add sh.admissions raw a;
        a
    in
    match a.sg with
    | None -> None
    | Some sg -> (
      match List.find_opt (fun (m, _) -> m == msg || Bytes.equal m msg) a.by_msg with
      | Some (_, admitted) -> admitted
      | None ->
        let admitted = S.admit sh.pp ~vks:sh.vks ~msg sg in
        a.by_msg <- (msg, admitted) :: a.by_msg;
        admitted)

  (* Step 1: the member's candidate aggregate from the signature bytes
     [raw] it received for node [idx], in received order. *)
  let candidate sh ~idx ~msg ~raw =
    memo sh.candidates (idx, msg, raw) @@ fun () ->
    Repro_obs.Trace.span ~cat:"srds" "srds.aggregate" @@ fun () ->
    let admitted = List.filter_map (admitted sh ~idx ~msg) raw in
    match S.aggregate2 sh.pp ~msg (S.select sh.pp admitted) with
    | Some sg -> W.to_bytes sg
    | None -> Bytes.empty

  (* Step 2's external validity: partially verifies and stays within the
     node's virtual-ID range (the empty payload is "nothing aggregated"). *)
  let valid sh ~idx ~msg payload =
    let { pp; vks; tree; level; _ } = sh in
    Bytes.length payload = 0
    || memo sh.verdicts (idx, msg, payload) @@ fun () ->
       match W.of_bytes payload with
       | Some sg -> S.verify_partial pp ~vks ~msg sg && node_range_ok tree ~level ~idx sg
       | None -> false

  (* One member's f_aggr-sig instance for node [idx] of the level. The
     result is a {!Committee.t} to be driven by the engine; its output
     payload is the node signature (possibly [Bytes.empty] when nothing
     aggregated). *)
  let instance sh ~idx ~members ~me ~msg ~raw =
    Committee.of_members ~members ~me ~candidate:(candidate sh ~idx ~msg ~raw)
      ~valid:(valid sh ~idx ~msg) ()

  let rounds ~members = Committee.rounds ~members:(Array.to_list members)

  let output st =
    match Committee.output st with
    | Some (Some payload) when Bytes.length payload > 0 -> Some payload
    | _ -> None
end
