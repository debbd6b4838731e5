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
   O(branching * committee_size) messages per level — polylog. *)

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

(* Group equal byte values. Honest forwards share one physical buffer (the
   network never copies payloads), so group first by physical identity and
   only fall back to content comparison across group representatives —
   tallying m copies of a large certificate costs m pointer checks. *)
let tally values =
  let groups : (bytes * int ref) list ref = ref [] in
  List.iter
    (fun v ->
      match List.find_opt (fun (r, _) -> r == v || Bytes.equal r v) !groups with
      | Some (_, c) -> incr c
      | None -> groups := (v, ref 1) :: !groups)
    values;
  !groups

(* Majority over byte strings with a strict > half threshold. *)
let strict_majority total values =
  List.fold_left
    (fun acc (v, c) -> if 2 * !c > total then Some v else acc)
    None (tally values)

(* Plurality (most frequent value), for combining across copies. *)
let plurality values =
  match tally values with
  | [] -> None
  | groups ->
    let v, _ =
      List.fold_left
        (fun ((_, bc) as best) ((_, c) as g) -> if !c > !bc then g else best)
        (List.hd groups) (List.tl groups)
    in
    Some v

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
  (* Per-party state materializes lazily: only the polylog-many committee
     members and slot owners that actually receive traffic ever allocate a
     table, so setup stays O(active), not O(n). *)
  (* received.(p) : (level, idx) -> value list *)
  let received : (int * int, bytes list) Hashtbl.t option array =
    Array.make n None
  in
  let leaf_values : (int, bytes list) Hashtbl.t option array =
    Array.make n None
  in
  let tbl arr p =
    match arr.(p) with
    | Some h -> h
    | None ->
      let h = Hashtbl.create 8 in
      arr.(p) <- Some h;
      h
  in
  let lookup arr p key =
    match arr.(p) with
    | None -> []
    | Some h -> ( try Hashtbl.find h key with Not_found -> [])
  in
  (* node (level, idx) -> payload carries level, idx, value *)
  (* Every member of a committee forwards the *same* majority value (one
     shared buffer, see {!tally}) to the same children, so the encoded
     payload is cached per (node, value-identity): one copy of a large
     certificate per child node instead of one per forwarding member. The
     bytes on the wire are unchanged — only the allocation count drops. *)
  let enc_cache : (int * int, (bytes * bytes) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let enc ~level ~idx v =
    let key = (level, idx) in
    let entries =
      match Hashtbl.find_opt enc_cache key with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.add enc_cache key l;
        l
    in
    match List.find_opt (fun (k, _) -> k == v) !entries with
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
      entries := (v, e) :: !entries;
      e
  in
  (* Memoized: the same multicast buffer reaches every committee member, so
     the decode (and its payload copy) happens once, not once per member. *)
  let dec =
    Repro_util.Encode.memo_decode (fun src ->
        let level = Repro_util.Encode.r_varint src in
        let idx = Repro_util.Encode.r_varint src in
        let v = Repro_util.Encode.r_bytes src in
        (level, idx, v))
  in
  (* A node's parties ascending, each once: the destinations of every
     forward to it (a leaf's are its slot owners), sorted once per
     dissemination, at the first forward to the node. *)
  let dsts_of =
    Array.init (height + 1) (fun level ->
        if level = 0 then [||] else Array.make (Tree.nodes_at_level tr ~level) [||])
  in
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
  let armed : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let handler p ~round inbox =
    (* ingest *)
    for i = 0 to Inbox.length inbox - 1 do
      if Inbox.tag inbox i = tag then
        match dec (Inbox.payload inbox i) with
        | Some (level, idx, v) ->
          if level >= 2 then begin
            let key = (level, idx) in
            Hashtbl.replace armed p ();
            Hashtbl.replace (tbl received p) key (v :: lookup received p key)
          end
          else
            Hashtbl.replace (tbl leaf_values p) idx
              (v :: lookup leaf_values p idx)
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
              let vs = lookup received p (level, idx) in
              let committee_size =
                Array.length (Tree.assigned tr ~level:(level + 1) ~idx:(idx / params.Params.branching))
              in
              match strict_majority committee_size vs with
              | Some v -> forward p ~level ~idx v
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
    let base = Hashtbl.fold (fun p () acc -> p :: acc) armed [] in
    if round - start = 0 then List.rev_append supreme base else base
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
            let vs = lookup leaf_values p leaf in
            let sender_committee =
              if height >= 2 then
                Array.length
                  (Tree.assigned tr ~level:2 ~idx:(leaf / params.Params.branching))
              else Array.length (Tree.supreme_committee tr)
            in
            strict_majority sender_committee vs)
          slot_leaves
      in
      (* Majority across the party's leaf copies (Def. 3.4 guarantee). *)
      match strict_majority (List.length slot_leaves) per_leaf with
      | Some v -> out.(p) <- Some v
      | None -> out.(p) <- plurality per_leaf
    end
  done;
  out
