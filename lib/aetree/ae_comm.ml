(* Realization of the reactive functionality f_ae-comm (paper Sec. 3.1).

   First invocation ({!establish}): run the election substrate to fix a tree
   seed, build the (n, I) almost-everywhere-communication tree with repeated
   parties (Def. 3.4), and index every party's committee memberships. Per
   the functionality's contract the adversary may instead supply the tree
   (subject to Defs. 2.3/3.4 — validated by {!Tree_check}).

   Subsequent invocations ({!disseminate}): the supreme committee pushes a
   value down the tree; each committee member forwards the majority of what
   it received to the committees of its node's children, and finally to the
   slot owners of the leaves. A party adopts the value that a majority of
   its slots agree on. Parties without a connected majority of leaves are
   exactly the isolated set D the functionality exposes. Per-party cost is
   O(branching * committee_size) messages per level — polylog.

   Simulation cost: a dissemination keeps its state per node — what each
   of a node's parties received for it, aligned with the node's sorted
   parties, and the node's encode cache — and the armed set as a flag per
   party. A party's inbox looks up each distinct payload buffer once in
   the content memo. Each distinct decoded value gets a content id once,
   so the per-node majorities and the final per-party combine compare ints,
   not the equal certificates that different nodes' payloads decode to
   in different buffers. The representatives returned and the tie-breaks
   are those of the byte comparison. *)

module Network = Repro_net.Network
module Inbox = Repro_net.Inbox

(* Per-node encode-cache effectiveness during dissemination. The cache is
   per-execution state driven by the committee schedule — pool-size
   independent, so both counters register deterministic. *)
let c_enc_hit = Repro_obs.Counters.make "aecomm.enc_hit"
let c_enc_miss = Repro_obs.Counters.make "aecomm.enc_miss"

type t = {
  tree : Tree.t;
  memberships : (int * int) list array; (* party -> internal nodes (level, idx) *)
}

let tree t = t.tree

let memberships t p = t.memberships.(p)

let create net tr =
  let n = Network.n net in
  let params = Tree.params tr in
  let memberships = Array.make n [] in
  for level = 2 to params.Params.height do
    for idx = 0 to Tree.nodes_at_level tr ~level - 1 do
      Array.iter
        (fun p -> memberships.(p) <- (level, idx) :: memberships.(p))
        (Tree.assigned tr ~level ~idx)
    done
  done;
  Array.iteri (fun p ms -> memberships.(p) <- List.rev ms) memberships;
  { tree = tr; memberships }

let establish ?adversary_tree net params ~rng =
  let election = Election.run net params ~rng in
  Network.flush net;
  let tr =
    match adversary_tree with
    | Some proposed ->
      let corrupt p = Network.is_corrupt net p in
      if Tree_check.check proposed ~corrupt <> [] then
        (* Out-of-contract proposal: fall back to the honest tree. *)
        Tree.of_seed params election.Election.seed
      else proposed
    | None -> Tree.of_seed params election.Election.seed
  in
  create net tr

(* Fig. 3 variant: the slot assignment was fixed by the public setup; the
   election only seeds the committees. *)
let establish_with_assignment ?adversary_tree net params ~slot_party ~rng =
  let election = Election.run net params ~rng in
  Network.flush net;
  let tr =
    match adversary_tree with
    | Some proposed ->
      let corrupt p = Network.is_corrupt net p in
      if Tree_check.check proposed ~corrupt <> [] then
        Tree.build params ~slot_party
          ~committee_rng:(Repro_util.Rng.create (Repro_crypto.Hashx.to_int election.Election.seed))
      else proposed
    | None ->
      Tree.build params ~slot_party
        ~committee_rng:(Repro_util.Rng.create (Repro_crypto.Hashx.to_int election.Election.seed))
  in
  create net tr

let isolated t ~corrupt p = not (Tree.party_connected t.tree ~corrupt p)

(* Group values [same] says are equal: the representative of a group is its
   first value in list order, and groups come newest-formed first. *)
let tally same values =
  let groups = ref [] in
  List.iter
    (fun v ->
      match List.find_opt (fun (r, _) -> same r v) !groups with
      | Some (_, c) -> incr c
      | None -> groups := (v, ref 1) :: !groups)
    values;
  !groups

(* Majority with a strict > half threshold. *)
let strict_majority same total values =
  List.fold_left
    (fun acc (v, c) -> if 2 * !c > total then Some v else acc)
    None (tally same values)

(* Plurality (most frequent value), for combining across copies. *)
let plurality_by same values =
  match tally same values with
  | [] -> None
  | groups ->
    let v, _ =
      List.fold_left
        (fun ((_, bc) as best) ((_, c) as g) -> if !c > !bc then g else best)
        (List.hd groups) (List.tl groups)
    in
    Some v

(* Honest forwards share one physical buffer (the network never copies
   payloads), so byte values are compared by pointer first and only then
   by content. *)
let plurality values = plurality_by (fun r v -> r == v || Bytes.equal r v) values

(* A decoded node message. [id] numbers the distinct contents of [value]
   within one dissemination, so tallies compare ints: the copies of a large
   certificate that different nodes' payloads decode to are equal in
   content but are different buffers. *)
type decoded = { level : int; idx : int; value : bytes; id : int }

let same_id a b = a.id = b.id

(* One dissemination: [values p] is the value supreme-committee member p
   injects (honest members inject the agreed value). Returns what each party
   adopted. Takes (height + 1) network rounds. *)
let disseminate ?adversary net t ~label ~values =
  Network.phase net ("aecomm:" ^ label) @@ fun () ->
  Repro_obs.Trace.span ~cat:"aecomm" ~args:[ ("label", label) ]
    ("aecomm:" ^ label)
  @@ fun () ->
  let n = Network.n net in
  let tr = t.tree in
  let params = Tree.params tr in
  let height = params.Params.height in
  let tag = "aecomm/" ^ label in
  (* Per-node state, indexed by (level, idx); level 1 holds the leaves. *)
  let per_node v =
    Array.init (height + 1) (fun level ->
        if level = 0 then [||] else Array.make (Tree.nodes_at_level tr ~level) v)
  in
  (* A node's parties ascending, each once: the destinations of every
     forward to it (a leaf's are its slot owners), sorted once per
     dissemination, at the first forward to or store at the node. *)
  let dsts_of = per_node [||] in
  let dsts ~level ~idx =
    match dsts_of.(level).(idx) with
    | [||] ->
      let d =
        Array.of_list (List.sort_uniq Int.compare (Array.to_list (Tree.assigned tr ~level ~idx)))
      in
      dsts_of.(level).(idx) <- d;
      d
    | d -> d
  in
  (* What each of a node's parties received for it, aligned with the
     node's [dsts]; materialized at the node's first store, so only nodes
     that see traffic allocate. A value sent to a party for a node it does
     not sit on is never read, so it is not kept. *)
  let received_at = per_node [||] in
  let store ~level ~idx p d =
    if idx < Array.length received_at.(level) then begin
      let ds = dsts ~level ~idx in
      let k = Repro_util.Mathx.sorted_index ds p in
      if k >= 0 then begin
        let slots =
          match received_at.(level).(idx) with
          | [||] ->
            let a = Array.make (Array.length ds) [] in
            received_at.(level).(idx) <- a;
            a
          | a -> a
        in
        slots.(k) <- d :: slots.(k)
      end
    end
  in
  let received ~level ~idx p =
    match received_at.(level).(idx) with
    | [||] -> []
    | slots ->
      let k = Repro_util.Mathx.sorted_index (dsts ~level ~idx) p in
      if k < 0 then [] else slots.(k)
  in
  (* node (level, idx) -> payload carries level, idx, value *)
  (* Every member of a committee forwards the *same* majority value (one
     shared buffer, see {!tally}) to the same children, so the encoded
     payload is cached per (node, value-identity): one copy of a large
     certificate per child node instead of one per forwarding member. The
     bytes on the wire are unchanged — only the allocation count drops. *)
  let enc_cache = per_node [] in
  let enc ~level ~idx v =
    match List.find_opt (fun (k, _) -> k == v) enc_cache.(level).(idx) with
    | Some (_, e) ->
      Repro_obs.Counters.bump c_enc_hit;
      e
    | None ->
      Repro_obs.Counters.bump c_enc_miss;
      let e =
        Repro_util.Encode.to_bytes (fun b ->
            Repro_util.Encode.varint b level;
            Repro_util.Encode.varint b idx;
            Repro_util.Encode.bytes b v)
      in
      enc_cache.(level).(idx) <- (v, e) :: enc_cache.(level).(idx);
      e
  in
  (* Content ids: distinct values bucketed by fingerprint, then compared by
     pointer and bytes, once per decoded value. *)
  let ids : (int, (bytes * int) list) Hashtbl.t = Hashtbl.create 16 and next_id = ref 0 in
  let id_of v =
    let key = Repro_util.Encode.fingerprint v in
    let bucket = Option.value ~default:[] (Hashtbl.find_opt ids key) in
    match List.find_opt (fun (r, _) -> r == v || Bytes.equal r v) bucket with
    | Some (_, id) -> id
    | None ->
      let id = !next_id in
      incr next_id;
      Hashtbl.replace ids key ((v, id) :: bucket);
      id
  in
  (* Memoized: the same multicast buffer reaches every committee member, so
     the decode (and its payload copy) happens once, not once per member. *)
  let dec =
    Repro_util.Encode.memo_decode (fun src ->
        let level = Repro_util.Encode.r_varint src in
        let idx = Repro_util.Encode.r_varint src in
        let value = Repro_util.Encode.r_bytes src in
        { level; idx; value; id = id_of value })
  in
  (* Member p of node (level, idx) forwards value v toward the leaves. *)
  let forward p ~level ~idx v =
    if level >= 2 then
      List.iter
        (fun child ->
          Network.send_many net ~src:p ~dsts:(dsts ~level:(level - 1) ~idx:child) ~tag
            (enc ~level:(level - 1) ~idx:child v))
        (Tree.children tr ~level ~idx)
    else
      (* Degenerate height-1 tree: the root is the single leaf; committee
         members hand the value straight to its slot owners. *)
      Network.send_many net ~src:p ~dsts:(dsts ~level:1 ~idx) ~tag (enc ~level:1 ~idx v)
  in
  let start = Network.round net in
  (* Parties that ingested an internal-node value must keep acting in later
     rounds even if a round leaves their inbox empty — a rushing adversary
     may deliver a level-L value *early*, and the party must still forward
     it at round (height - L). Keeping them in the active set does that;
     the set only ever holds committee members. *)
  let armed = Bytes.make n '\000' and armed_list = ref [] in
  let handler p ~round inbox =
    (* ingest: an inbox repeats a few buffers (a node's members forward
       one shared encoding), so each is looked up in [dec] once per inbox *)
    let seen = ref [] in
    for i = 0 to Inbox.length inbox - 1 do
      if Inbox.tag inbox i = tag then
        let payload = Inbox.payload inbox i in
        let decoded =
          match List.assq payload !seen with
          | r -> r
          | exception Not_found ->
            let r = dec payload in
            seen := (payload, r) :: !seen;
            r
        in
        match decoded with
        | Some d ->
          if d.level >= 2 then begin
            if Bytes.get armed p = '\000' then begin
              Bytes.set armed p '\001';
              armed_list := p :: !armed_list
            end;
            if d.level <= height then store ~level:d.level ~idx:d.idx p d
          end
          else (* any level below 2 names a leaf *)
            store ~level:1 ~idx:d.idx p d
        | None -> ()
    done;
    let round0 = round - start in
    if round0 = 0 then begin
      (* Supreme committee injects. *)
      if Array.exists (fun q -> q = p) (Tree.supreme_committee tr) then
        match values p with
        | Some v -> forward p ~level:height ~idx:0 v
        | None -> ()
    end
    else begin
      (* Members of nodes at level (height - round0) forward the majority of
         what arrived for that node. *)
      let level = height - round0 in
      if level >= 2 then
        List.iter
          (fun (l, idx) ->
            if l = level then begin
              let committee_size =
                Array.length (Tree.assigned tr ~level:(level + 1) ~idx:(idx / params.Params.branching))
              in
              match strict_majority same_id committee_size (received ~level ~idx p) with
              | Some d -> forward p ~level ~idx d.value
              | None -> ()
            end)
          t.memberships.(p)
    end
  in
  (* Round 0's spontaneous actors are the honest supreme committee members;
     every later round is driven by deliveries plus the armed set. A party
     outside both has received nothing to forward. *)
  let supreme =
    List.filter (Network.is_honest net)
      (List.sort_uniq compare (Array.to_list (Tree.supreme_committee tr)))
  in
  let extra ~round =
    if round - start = 0 then List.rev_append supreme !armed_list else !armed_list
  in
  Network.run_slices net ?adversary ~rounds:(max 2 height) ~extra (fun p ->
      if Network.is_honest net p then Some (handler p) else None);
  (* Each party combines: per leaf slot, take majority of copies received for
     that leaf (sent by the level-2 committee); across its slots, plurality. *)
  let out = Array.make n None in
  for p = 0 to n - 1 do
    if Network.is_honest net p then begin
      let slot_leaves =
        List.map (fun s -> Params.leaf_of_slot params s) (Tree.party_slots tr p)
      in
      let per_leaf =
        List.filter_map
          (fun leaf ->
            let sender_committee =
              if height >= 2 then
                Array.length
                  (Tree.assigned tr ~level:2 ~idx:(leaf / params.Params.branching))
              else Array.length (Tree.supreme_committee tr)
            in
            strict_majority same_id sender_committee (received ~level:1 ~idx:leaf p))
          slot_leaves
      in
      (* Majority across the party's leaf copies (Def. 3.4 guarantee). *)
      match strict_majority same_id (List.length slot_leaves) per_leaf with
      | Some d -> out.(p) <- Some d.value
      | None -> out.(p) <- Option.map (fun d -> d.value) (plurality_by same_id per_leaf)
    end
  done;
  out
