(* Protocol engine: drives many round-based state machines over the network.

   In the BA protocol a single party simultaneously participates in several
   protocol instances — one committee BA, coin-toss or aggregation instance
   per tree node it is assigned to. Protocol modules (phase king, coin toss,
   ...) are written as pure per-party state machines; this engine multiplexes
   all instances of all parties over one Network, tagging messages with
   "tag/instance" so concurrent instances never interfere.

   Timing: sends of local round r are delivered and handed to [m_recv] with
   the same local round number at the start of the next network round. An
   execution of [rounds] local rounds therefore takes [rounds + 1] network
   rounds (the final one only delivers).

   Nothing is built per message on the way in or out. A party's handler
   runs on the network's slice stepper and reads its inbox as a view of
   the delivery arrays; the engine demultiplexes that slice in one pass,
   reading the view's arrays directly, and hands each instance a view of
   its messages. While every message so far belongs to one instance
   nothing is copied: an inbox wholly for one instance (one in eight
   committee messages) is handed over as it is. At the first message
   that breaks that, the prefix is copied once into that instance's range
   of reused int arrays (sender and body per message), and every later
   message is stored into its instance's range. A machine sends through
   an emitter built once per (party, instance), whose [send_many] is one
   [Network.send_many] over the machine's own destination array. *)

type out = { send : int -> bytes -> unit; send_many : int array -> bytes -> unit }

type machine = { m_send : round:int -> out -> unit; m_recv : round:int -> Inbox.t -> unit }

let instance_tag tag inst = tag ^ "/" ^ inst

(* Messages handed to an instance's [m_recv] across all engine executions. *)
let c_msgs = Repro_obs.Counters.make "engine.msgs"

(* Depth of each dirty inbox as the engine dispatches it: how many wire
   messages one party had to demultiplex in one round. Delivery-schedule
   driven, hence deterministic. *)
let h_inbox = Repro_obs.Counters.histogram "engine.inbox_depth"

(* The index of the slot whose full tag is [tag], or -1: first by pointer
   (engine sends carry the run's interned tag), then by bytes. *)
let rec find_slot tags k tag j =
  if j >= k then find_slot_bytes tags k tag 0
  else if Array.unsafe_get tags j == tag then j
  else find_slot tags k tag (j + 1)

and find_slot_bytes tags k tag j =
  if j >= k then -1
  else if String.equal (Array.unsafe_get tags j) tag then j
  else find_slot_bytes tags k tag (j + 1)

(* One party's instances, in slot order: full tags, machines and
   emitters. *)
type party = { tags : string array; ms : machine array; outs : out array }

(* The run's dispatch scratch, shared by its parties (handlers run one at a
   time) and grown, never shrunk: for an inbox of [len] messages, slot
   [j]'s senders and bodies take [j * len, j * len + counts.(j)). *)
type scratch = {
  mutable counts : int array;
  mutable e_src : int array;
  mutable e_body : int array;
  view : Inbox.t;
}

let grow a k = if Array.length a >= k then a else Array.make (max k (2 * Array.length a)) 0

(* Deliver the party's inbox [v] to its slots, each slot's messages in
   delivery order. A message belongs to the slot whose full tag it
   carries; anything else (another phase's leftovers, another instance, a
   lookalike prefix) is dropped. Engine sends carry the interned tag
   itself, so a pass comparing pointers finds their slot; only other
   messages (an adversary's freshly built tags) fall back to comparing
   bytes. Slot tags are distinct, so both passes can only pick the same
   slot, and a message with the previous message's tag (a fan-out's
   bodies are shared) takes the previous slot without a search. *)
let dispatch sc pt ~round (v : Inbox.t) =
  let k = Array.length pt.tags and len = v.len in
  Repro_obs.Counters.observe h_inbox len;
  sc.e_src <- grow sc.e_src (k * len);
  sc.e_body <- grow sc.e_body (k * len);
  sc.counts <- grow sc.counts k;
  let counts = sc.counts and e_src = sc.e_src and e_body = sc.e_body in
  Array.fill counts 0 k 0;
  let srcs = v.srcs and bodies = v.bodies and tags = v.tags and off = v.off in
  (* While [whole], messages [0, i) all belong to slot [j0] and sit
     uncopied in [v]. *)
  let whole = ref true and j0 = ref (-1) and kept = ref 0 in
  let last_tag = ref (Array.unsafe_get pt.tags 0) and last_j = ref 0 in
  for i = 0 to len - 1 do
    let body = Array.unsafe_get bodies (off + i) in
    let tag = Array.unsafe_get tags body in
    if tag != !last_tag then begin
      last_tag := tag;
      last_j := find_slot pt.tags k tag 0
    end;
    let j = !last_j in
    if !whole && j >= 0 && (i = 0 || j = !j0) then j0 := j
    else begin
      if !whole then begin
        whole := false;
        if i > 0 then begin
          Array.blit srcs off e_src (!j0 * len) i;
          Array.blit bodies off e_body (!j0 * len) i;
          counts.(!j0) <- i
        end
      end;
      if j >= 0 then begin
        let c = counts.(j) in
        let at = (j * len) + c in
        e_src.(at) <- Array.unsafe_get srcs (off + i);
        e_body.(at) <- body;
        counts.(j) <- c + 1
      end
    end;
    if j >= 0 then incr kept
  done;
  Repro_obs.Counters.add c_msgs !kept;
  for j = 0 to k - 1 do
    if !whole && j = !j0 then Inbox.set_within sc.view ~from:v ~srcs ~bodies ~off ~len
    else
      Inbox.set_within sc.view ~from:v ~srcs:e_src ~bodies:e_body ~off:(j * len)
        ~len:counts.(j);
    pt.ms.(j).m_recv ~round sc.view
  done

(* [machines p] lists party p's instances as (instance-id, machine); entries
   for corrupt parties are ignored (their traffic comes from the adversary).
   The engine runs [rounds] local rounds starting from the network's current
   round. *)
let run net ?adversary ~tag ~rounds ~(machines : int -> (string * machine) list)
    () =
  let n = Network.n net in
  (* Full instance tags are interned once per run and shared by every
     party: each send of an instance carries the same string, so no concat
     happens per send and dispatch below usually matches on pointers. *)
  let interned : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let full_tag inst =
    match Hashtbl.find_opt interned inst with
    | Some f -> f
    | None ->
      let f = instance_tag tag inst in
      Hashtbl.add interned inst f;
      f
  in
  (* Only parties that own at least one instance get slots and a handler,
     and they act every round. A party with no instances has nothing to
     dispatch to and nothing to send, so it never acts, and each round
     costs O(participants), not O(n) — with sortition that is polylog(n)
     parties.

     A party's instances live in a slot array, in the iteration order of a
     Hashtbl keyed by instance id. Slot order is the order of the party's
     sends within a round, which every pinned transcript depends on. *)
  let participants =
    List.filter_map
      (fun p ->
        if not (Network.is_honest net p) then None
        else
          match machines p with
          | [] -> None
          | ms ->
            let tbl = Hashtbl.create 8 in
            List.iter
              (fun (inst, m) ->
                if Hashtbl.mem tbl inst then
                  invalid_arg ("Engine.run: duplicate instance " ^ inst);
                Hashtbl.add tbl inst m)
              ms;
            let slots = ref [] in
            Hashtbl.iter (fun inst m -> slots := (full_tag inst, m) :: !slots) tbl;
            let slots = Array.of_list (List.rev !slots) in
            let out ft =
              {
                send = (fun dst payload -> Network.send net ~src:p ~dst ~tag:ft payload);
                send_many =
                  (fun dsts payload -> Network.send_many net ~src:p ~dsts ~tag:ft payload);
              }
            in
            Some
              ( p,
                {
                  tags = Array.map fst slots;
                  ms = Array.map snd slots;
                  outs = Array.map (fun (ft, _) -> out ft) slots;
                } ))
      (Network.everyone net)
  in
  let start = Network.round net in
  let sc = { counts = [||]; e_src = [||]; e_body = [||]; view = Inbox.create () } in
  let handler pt ~round v =
    let local = round - start in
    if local > 0 then
      if Repro_obs.Trace.enabled () then
        Repro_obs.Trace.span ~cat:"engine" "engine.dispatch" (fun () ->
            dispatch sc pt ~round:(local - 1) v)
      else dispatch sc pt ~round:(local - 1) v;
    if local < rounds then
      for j = 0 to Array.length pt.ms - 1 do
        pt.ms.(j).m_send ~round:local pt.outs.(j)
      done
  in
  let handlers = Array.make n None in
  List.iter (fun (p, pt) -> handlers.(p) <- Some (handler pt)) participants;
  let actors = List.map fst participants in
  (* The engine tag ("coin-ba", "aggr-ba-2", ...) is the finest-grained
     phase label the auditor's timeline and violations carry, and the one
     forensic cones name a message's phase by. *)
  Network.phase net ("engine:" ^ tag) @@ fun () ->
  Repro_obs.Trace.span ~cat:"engine" ("engine:" ^ tag) (fun () ->
      Network.run_slices net ?adversary ~rounds:(rounds + 1)
        ~extra:(fun ~round:_ -> actors)
        (Array.get handlers))
