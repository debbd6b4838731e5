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
   rounds (the final one only delivers). *)

type machine = {
  m_send : round:int -> (int * bytes) list;
      (* messages (dst, payload) this machine emits in local round [round] *)
  m_recv : round:int -> (int * bytes) list -> unit;
      (* messages (src, payload) delivered for local round [round] *)
}

let instance_tag tag inst = tag ^ "/" ^ inst

(* Messages handed to an instance's [m_recv] across all engine executions. *)
let c_msgs = Repro_obs.Counters.make "engine.msgs"

(* Depth of each dirty inbox as the engine dispatches it: how many wire
   messages one party had to demultiplex in one round. Delivery-schedule
   driven, hence deterministic. *)
let h_inbox = Repro_obs.Counters.histogram "engine.inbox_depth"

(* The index of the slot whose full tag is [tag], or -1: first by pointer
   (engine sends carry the run's interned tag), then by bytes. *)
let rec find_slot slots k tag j =
  if j >= k then find_slot_bytes slots k tag 0
  else if fst (Array.unsafe_get slots j) == tag then j
  else find_slot slots k tag (j + 1)

and find_slot_bytes slots k tag j =
  if j >= k then -1
  else if String.equal (fst (Array.unsafe_get slots j)) tag then j
  else find_slot_bytes slots k tag (j + 1)

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
            Some (p, Array.of_list (List.rev !slots), Array.make (Hashtbl.length tbl) []))
      (Network.everyone net)
  in
  let start = Network.round net in
  let handler p slots pending ~round ~inbox =
    let local = round - start in
    let k = Array.length slots in
    (* Dispatch last round's deliveries per instance, preserving order. A
       message belongs to the slot whose full tag it carries; anything else
       (another phase's leftovers, another instance, a lookalike prefix) is
       dropped. Engine sends carry the interned tag itself, so a pass
       comparing pointers finds their slot; only other messages (an
       adversary's freshly built tags) fall back to comparing bytes. Slot
       tags are distinct, so both passes can only pick the same slot. *)
    if local > 0 then
      Repro_obs.Trace.span ~cat:"engine" "engine.dispatch" (fun () ->
          Repro_obs.Counters.observe h_inbox (List.length inbox);
          List.iter
            (fun (m : Wire.msg) ->
              let j = find_slot slots k m.tag 0 in
              if j >= 0 then begin
                Repro_obs.Counters.bump c_msgs;
                pending.(j) <- (m.src, m.payload) :: pending.(j)
              end)
            inbox;
          Array.iteri
            (fun j (_, m) ->
              let msgs = List.rev pending.(j) in
              pending.(j) <- [];
              m.m_recv ~round:(local - 1) msgs)
            slots);
    if local < rounds then
      Array.iter
        (fun (ft, m) ->
          match m.m_send ~round:local with
          | [] -> ()
          | msgs ->
            List.iter
              (fun (dst, payload) -> Network.send net ~src:p ~dst ~tag:ft payload)
              msgs)
        slots
  in
  let handlers = Array.make n None in
  List.iter
    (fun (p, slots, pending) -> handlers.(p) <- Some (handler p slots pending))
    participants;
  let actors = List.map (fun (p, _, _) -> p) participants in
  (* The engine tag ("coin-ba", "aggr-ba-2", ...) is the finest-grained
     phase label the auditor's timeline and violations carry, and the one
     forensic cones name a message's phase by. *)
  Network.phase net ("engine:" ^ tag) @@ fun () ->
  Repro_obs.Trace.span ~cat:"engine" ("engine:" ^ tag) (fun () ->
      Network.run_active net ?adversary ~rounds:(rounds + 1)
        ~extra:(fun ~round:_ -> actors)
        (Array.get handlers))
