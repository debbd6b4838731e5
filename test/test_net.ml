(* Tests for the synchronous network simulator, metrics, and the protocol
   engine. *)

module Network = Repro_net.Network
module Metrics = Repro_net.Metrics
module Engine = Repro_net.Engine
module Wire = Repro_net.Wire
module Sched = Repro_net.Sched
module Inbox = Repro_net.Inbox

(* An inbox view's messages as (src, payload) pairs, in delivery order. *)
let msgs_of v = List.init (Inbox.length v) (fun i -> (Inbox.src v i, Inbox.payload v i))

let test_delivery_next_round () =
  let net = Network.create ~n:3 ~corrupt:[] () in
  let got = Array.make 3 [] in
  let handler p ~round ~inbox =
    got.(p) <- got.(p) @ List.map (fun (m : Wire.msg) -> (round, m.src, Bytes.to_string m.payload)) inbox;
    if round = 0 && p = 0 then
      Network.send net ~src:0 ~dst:1 ~tag:"t" (Bytes.of_string "hi")
  in
  Views.run_lists net ~rounds:3
    ~extra:(fun ~round:_ -> Network.everyone net)
    (fun p -> Some (handler p));
  Alcotest.(check (list (triple int int string))) "delivered round 1"
    [ (1, 0, "hi") ] got.(1);
  Alcotest.(check (list (triple int int string))) "nothing to 2" [] got.(2)

let test_metrics_accounting () =
  let net = Network.create ~n:4 ~corrupt:[] () in
  let handler p ~round ~inbox =
    ignore inbox;
    if round = 0 && p = 0 then begin
      Network.send net ~src:0 ~dst:1 ~tag:"x" (Bytes.make 10 'a');
      Network.send net ~src:0 ~dst:2 ~tag:"x" (Bytes.make 20 'a')
    end
  in
  Views.run_lists net ~rounds:2
    ~extra:(fun ~round:_ -> Network.everyone net)
    (fun p -> Some (handler p));
  let m = Network.metrics net in
  (* size = tag(1) + payload + 4 *)
  Alcotest.(check int) "sender bytes" (15 + 25) (Metrics.party_bytes_sent m 0);
  Alcotest.(check int) "receiver bytes" 15 (Metrics.party_bytes m 1);
  Alcotest.(check int) "locality sender" 2 (Metrics.party_locality m 0);
  Alcotest.(check int) "locality idle" 0 (Metrics.party_locality m 3);
  Alcotest.(check int) "rounds" 2 (Metrics.rounds m)

let test_report_excludes_corrupt () =
  let net = Network.create ~n:3 ~corrupt:[ 2 ] () in
  let handler p ~round ~inbox =
    ignore inbox;
    if round = 0 && p = 0 then Network.send net ~src:0 ~dst:1 ~tag:"t" (Bytes.make 5 'x')
  in
  Views.run_lists net ~rounds:2
    ~extra:(fun ~round:_ -> Network.everyone net)
    (fun p -> if p = 2 then None else Some (handler p));
  let r = Metrics.report ~include_party:(Network.is_honest net) (Network.metrics net) in
  Alcotest.(check int) "max bytes" 10 r.Metrics.max_bytes

let test_rushing_adversary_sees_staged () =
  let net = Network.create ~n:3 ~corrupt:[ 2 ] () in
  let seen = ref [] in
  let adversary =
    {
      Network.adv_name = "spy";
      adv_step =
        (fun net ~round ~honest_staged ->
          if round = 0 then begin
            let honest_staged = Views.to_list honest_staged in
            seen := List.map (fun (m : Wire.msg) -> Bytes.to_string m.payload) honest_staged;
            (* echo what party 0 sent, immediately, to party 1 *)
            List.iter
              (fun (m : Wire.msg) ->
                Network.send net ~src:2 ~dst:1 ~tag:"echo" m.payload)
              honest_staged
          end);
    }
  in
  let got = ref [] in
  let handler p ~round ~inbox =
    List.iter
      (fun (m : Wire.msg) -> if p = 1 then got := (round, m.tag, Bytes.to_string m.payload) :: !got)
      inbox;
    if round = 0 && p = 0 then Network.send net ~src:0 ~dst:1 ~tag:"t" (Bytes.of_string "secret")
  in
  Views.run_lists net ~adversary ~rounds:2
    ~extra:(fun ~round:_ -> Network.everyone net)
    (fun p -> if p = 2 then None else Some (handler p));
  Alcotest.(check (list string)) "adversary saw" [ "secret" ] !seen;
  (* both original and echo arrive in round 1 *)
  Alcotest.(check int) "both delivered" 2 (List.length !got)

let test_adversary_cannot_impersonate () =
  (* Channels are authenticated: during the adversary's turn, a send with
     an honest src must be rejected; corrupt srcs still go through. *)
  let net = Network.create ~n:4 ~corrupt:[ 3 ] () in
  let adversary =
    {
      Network.adv_name = "imposter";
      adv_step =
        (fun net ~round ~honest_staged:_ ->
          if round = 0 then begin
            Alcotest.check_raises "honest src rejected"
              (Invalid_argument
                 "Network.send: adversary send from honest src rejected")
              (fun () ->
                Network.send net ~src:0 ~dst:1 ~tag:"t" (Bytes.of_string "x"));
            Network.send net ~src:3 ~dst:1 ~tag:"t" (Bytes.of_string "y")
          end);
    }
  in
  let got = ref [] in
  let handler p ~round:_ ~inbox =
    if p = 1 then
      got :=
        !got @ List.map (fun (m : Wire.msg) -> (m.src, Bytes.to_string m.payload)) inbox
  in
  Views.run_lists net ~adversary ~rounds:2
    ~extra:(fun ~round:_ -> Network.everyone net)
    (fun p -> if p = 3 then None else Some (handler p));
  (* the impersonation was rejected, the corrupt-src send delivered *)
  Alcotest.(check (list (pair int string))) "only corrupt mail" [ (3, "y") ] !got;
  (* outside the adversary's turn honest sends still work (next round) *)
  let handler2 p ~round ~inbox =
    ignore inbox;
    if p = 0 && round = 2 then
      Network.send net ~src:0 ~dst:1 ~tag:"t" (Bytes.of_string "later")
  in
  Views.run_lists net ~adversary ~rounds:1
    ~extra:(fun ~round:_ -> Network.everyone net)
    (fun p -> if p = 3 then None else Some (handler2 p))

let test_flush_drops_in_flight () =
  let net = Network.create ~n:2 ~corrupt:[] () in
  let received = ref 0 in
  let handler p ~round ~inbox =
    received := !received + List.length inbox;
    if round = 0 && p = 0 then Network.send net ~src:0 ~dst:1 ~tag:"t" Bytes.empty
  in
  (* run only the sending round, then flush before delivery is consumed *)
  Views.run_lists net ~rounds:1
    ~extra:(fun ~round:_ -> Network.everyone net)
    (fun p -> Some (handler p));
  Network.flush net;
  Views.run_lists net ~rounds:1
    ~extra:(fun ~round:_ -> Network.everyone net)
    (fun p -> Some (handler p));
  Alcotest.(check int) "nothing received" 0 !received

(* Flush drops the round's staged sends and the pending inboxes, not mail
   parked on the async heap: a condition's [Defer] survives into the next
   phase and is read when due. *)
let test_flush_keeps_parked_mail () =
  let net = Network.create ~n:2 ~corrupt:[] () in
  Network.set_condition net
    {
      Sched.pass_condition with
      c_route =
        (fun ~now ~round ~src:_ ~dst:_ ~lat ->
          if round = 0 then Sched.Defer (now + 5) else Sched.Deliver lat);
    };
  Views.run_lists net ~rounds:1
    ~extra:(fun ~round:_ -> [ 0 ])
    (fun p ->
      Some (fun ~round:_ ~inbox:_ -> if p = 0 then Network.send net ~src:0 ~dst:1 ~tag:"phase-1" Bytes.empty));
  Network.flush net;
  let read = ref [] in
  Views.run_lists net ~rounds:8
    ~extra:(fun ~round:_ -> [])
    (fun _ ->
      Some
        (fun ~round ~inbox ->
          List.iter (fun (m : Wire.msg) -> read := (round, m.tag) :: !read) inbox));
  Alcotest.(check (list (pair int string))) "parked mail read after flush"
    [ (5, "phase-1") ] !read

(* --- In-flight buffers: no payload outlives its round --- *)

(* Sends [k] fresh payloads from party 0 to parties 1..k, each watched
   through [w]. A separate function, so no payload stays on the caller's
   stack. *)
let send_watched net w k =
  for j = 0 to k - 1 do
    let p = Bytes.make 24 (Char.chr (Char.code 'a' + j)) in
    Weak.set w j (Some p);
    Network.send net ~src:0 ~dst:(j + 1) ~tag:"t" p
  done

(* [net] is used after the collection, so it stays live across it: a
   payload the network still references would survive. *)
let check_collected what net w =
  Gc.full_major ();
  for j = 0 to Weak.length w - 1 do
    Alcotest.(check bool) (Printf.sprintf "%s: payload %d collected" what j) false (Weak.check w j)
  done;
  ignore (Sys.opaque_identity net)

(* A network on the lock-step shortcut, or on the general (time, seq)
   path when [condition] is given. *)
let create_on ?condition ?sinks ~n ~corrupt () =
  let net = Network.create ?sinks ~n ~corrupt () in
  Option.iter (Network.set_condition net) condition;
  net

let payloads_die ?condition () =
  let k = 3 in
  (* Round 0 sends three fresh payloads, round 1 reads them and sends one
     static payload: fewer deliveries than the round before, so stale
     delivery slots would keep the fresh ones alive. *)
  let net = create_on ?condition ~n:(k + 1) ~corrupt:[] () in
  let w = Weak.create k in
  let read = ref 0 in
  Views.run_lists net ~rounds:3
    ~extra:(fun ~round:_ -> Network.everyone net)
    (fun p ->
      Some
        (fun ~round ~inbox ->
          read := !read + List.length inbox;
          if round = 0 && p = 0 then send_watched net w k;
          if round = 1 && p = 0 then Network.send net ~src:0 ~dst:1 ~tag:"u" Bytes.empty));
  Alcotest.(check int) "all read" (k + 1) !read;
  check_collected "a round after delivery" net w;
  (* Flushed while staged, and flushed while delivered but unread. *)
  let net = create_on ?condition ~n:(k + 1) ~corrupt:[] () in
  let w = Weak.create k in
  send_watched net w k;
  Network.flush net;
  check_collected "flushed staged" net w;
  let w = Weak.create k in
  Views.run_lists net ~rounds:1
    ~extra:(fun ~round:_ -> [ 0 ])
    (fun _ -> Some (fun ~round:_ ~inbox:_ -> send_watched net w k));
  Alcotest.(check int) "delivered" 1 (List.length (Views.inbox net 1));
  Network.flush net;
  Alcotest.(check int) "flushed" 0 (List.length (Views.inbox net 1));
  check_collected "flushed delivered" net w

(* On both of the executor's zero-knob paths. *)
let test_payloads_die () =
  payloads_die ();
  payloads_die ~condition:Sched.pass_condition ()

(* --- The GC property: in-flight mail is not promoted --- *)

(* Every party of [n] sends [degree] messages each round it hears
   something, for [rounds] rounds; returns promoted words per message.
   A message that sits in a long-lived structure across its round is
   promoted by every minor collection that catches it in flight, so a
   heap record or cons cell per message put back in flight shows here. *)
let promoted_per_msg ~n ~degree ~step ~rounds ~fresh =
  let shared = Bytes.make 32 'm' in
  let msgs = ref 0 in
  let net = Network.create ~n ~corrupt:[] () in
  let handler i ~round ~inbox =
    if round = 0 || inbox <> [] then begin
      let payload = if fresh then Bytes.make 32 'f' else shared in
      for k = 1 to degree do
        incr msgs;
        Network.send net ~src:i ~dst:((i + (k * step)) mod n) ~tag:"fan" payload
      done
    end
  in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  Views.run_lists net ~rounds
    ~extra:(fun ~round -> if round = 0 then List.init n Fun.id else [])
    (fun i -> Some (handler i));
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. before in
  promoted /. float_of_int !msgs

let test_in_flight_not_promoted () =
  let check what v =
    if v > 2. then Alcotest.failf "%s: %.2f promoted words per message (> 2)" what v
  in
  (* The ledger's fan-out shape (bench/ledger/units.ml) ... *)
  check "fan-out n=1024 x 8"
    (promoted_per_msg ~n:1024 ~degree:8 ~step:97 ~rounds:50 ~fresh:false);
  (* ... and a committee-shaped all-to-many round with fresh payloads. *)
  check "committee n=256 x 22"
    (promoted_per_msg ~n:256 ~degree:22 ~step:1 ~rounds:50 ~fresh:true)

(* --- The observation order, pinned directly --- *)

(* Three honest senders with interleaved destinations and a corrupt party
   that echoes once; a recording sink sees the whole stream. Pinned: Send
   events in send order, each round's close with its scheduled count, sent
   bits and per-party charges (round bits/peers, then cumulative), every
   inbox in delivery order, and what the rushing adversary sees. Sends
   carry their virtual time only off the lock-step shortcut. *)
let observation_order ?condition () =
  let log = ref [] in
  let sink (ev : Repro_obs.Event.t) =
    let line =
      match ev with
      | Send { round; vt; src; dst; payload; bits; _ } ->
        Printf.sprintf "send r%d%s %d>%d %s %d" round
          (match vt with Some v -> Printf.sprintf " vt%d" v | None -> "")
          src dst (Bytes.to_string payload) bits
      | Round_end { round; scheduled; sent_bits; charged } ->
        Printf.sprintf "end r%d sched %d sent %d:%s" round scheduled sent_bits
          (String.concat ""
             (Array.to_list
                (Array.map
                   (fun (c : Repro_obs.Event.charge) ->
                     Printf.sprintf " %d=%d/%d (%d/%d)" c.party c.round_bits
                       c.round_peers c.total_bits c.total_peers)
                   charged)))
      | Corrupt p -> Printf.sprintf "corrupt %d" p
      | _ -> "other"
    in
    log := line :: !log
  in
  let net = create_on ?condition ~sinks:[ sink ] ~n:4 ~corrupt:[ 3 ] () in
  let plan =
    [| [ (2, "a0"); (1, "a1") ]; [ (2, "b0"); (0, "b1"); (2, "b2") ]; [ (1, "c0"); (2, "c1"); (0, "c2") ] |]
  in
  let seen = ref [] in
  let adversary =
    {
      Network.adv_name = "echo";
      adv_step =
        (fun net ~round ~honest_staged ->
          if round = 0 then begin
            seen :=
              List.map
                (fun (m : Wire.msg) -> (m.src, m.dst, Bytes.to_string m.payload))
                (Views.to_list honest_staged);
            Network.send net ~src:3 ~dst:1 ~tag:"t" (Bytes.of_string "d0")
          end);
    }
  in
  let render inbox = List.map (fun (m : Wire.msg) -> (m.src, m.dst, Bytes.to_string m.payload)) inbox in
  let inboxes = ref [] in
  Views.run_lists net ~adversary ~rounds:2
    ~extra:(fun ~round -> if round = 0 then [ 0; 1; 2 ] else [ 2 ])
    (fun p ->
      if p = 3 then None
      else
        Some
          (fun ~round ~inbox ->
            if round = 1 then inboxes := (p, render inbox) :: !inboxes;
            if round = 0 then
              List.iter (fun (dst, s) -> Network.send net ~src:p ~dst ~tag:"t" (Bytes.of_string s)) plan.(p);
            if round = 1 && p = 2 then Network.send net ~src:2 ~dst:0 ~tag:"t" (Bytes.of_string "e")));
  let triples = Alcotest.(list (triple int int string)) in
  Alcotest.(check triples) "rushing adversary saw the honest sends in send order"
    [ (0, 2, "a0"); (0, 1, "a1"); (1, 2, "b0"); (1, 0, "b1"); (1, 2, "b2"); (2, 1, "c0"); (2, 2, "c1"); (2, 0, "c2") ]
    !seen;
  Alcotest.(check (list (pair int triples))) "round-1 inboxes"
    [
      (0, [ (1, 0, "b1"); (2, 0, "c2") ]);
      (1, [ (0, 1, "a1"); (2, 1, "c0"); (3, 1, "d0") ]);
      (2, [ (0, 2, "a0"); (1, 2, "b0"); (1, 2, "b2"); (2, 2, "c1") ]);
    ]
    (List.rev !inboxes);
  (* After the last round: only round 1's single send is pending. *)
  Alcotest.(check (list triples)) "pending inboxes"
    [ [ (2, 0, "e") ]; []; []; [] ]
    (List.map (fun p -> render (Views.inbox net p)) (Network.everyone net));
  let vt r = match condition with None -> "" | Some _ -> Printf.sprintf " vt%d" r in
  let send r s d p = Printf.sprintf "send r%d%s %d>%d %s %d" r (vt r) s d p (8 * (String.length p + 5)) in
  Alcotest.(check (list string)) "event stream"
    [
      "corrupt 3";
      send 0 0 2 "a0"; send 0 0 1 "a1";
      send 0 1 2 "b0"; send 0 1 0 "b1"; send 0 1 2 "b2";
      send 0 2 1 "c0"; send 0 2 2 "c1"; send 0 2 0 "c2";
      send 0 3 1 "d0";
      "end r0 sched 3 sent 504: 0=224/2 (224/2) 1=336/3 (336/3) 2=392/3 (392/3) 3=56/1 (56/1)";
      send 1 2 0 "e";
      "end r1 sched 3 sent 48: 0=48/1 (272/2) 2=48/1 (440/3)";
    ]
    (List.rev !log)

let test_observation_order () =
  observation_order ();
  observation_order ~condition:Sched.pass_condition ()

(* --- Message bodies: inboxes equal a naive list model --- *)

(* A round's sends share a body only while tag and payload stay
   physically the same, so the script mixes every way a run of bodies
   can break or continue: one payload under two tags, one tag with two
   payloads, an A/B/A interleave, a [send_many] fan-out continued by a
   single send, and an equal but distinct payload. A flush between two
   stepper calls drops the inboxes it finds. With [defer], a
   condition parks some sends on the heap, to be staged again when
   drained; only the general path takes a condition, so the shortcut runs
   the script without it. *)
type action = To of int * string * bytes | Many of int list * string * bytes

let bodies_match_model ?(defer = fun ~round:_ ~src:_ ~dst:_ -> None) ~general () =
  let a = Bytes.of_string "A" and b = Bytes.of_string "B" and c = Bytes.of_string "C" in
  let d = Bytes.of_string "D" and e = Bytes.of_string "E" in
  let plan = function
    | 0, 0 -> [ To (1, "x", a); To (2, "y", a) ]
    | 0, 1 -> [ To (0, "x", a); To (2, "x", b); To (3, "x", a) ]
    | 0, 2 -> [ Many ([ 0; 1; 3 ], "z", c); To (0, "late", d) ]
    | 0, 3 -> [ To (3, "x", a) ]
    | 1, 0 -> [ Many ([ 1; 2; 3 ], "z", a); To (1, "z", a) ]
    | 1, 3 -> [ To (0, "late", e) ]
    | 2, 1 -> [ To (2, "x", b) ]
    | 2, 2 -> [ To (1, "y", b); To (1, "y", Bytes.copy b) ]
    | 3, 0 -> [ To (1, "x", a); To (1, "x", a) ]
    | _ -> []
  in
  let n = 4 and rounds = 6 and flushed = 2 (* the round whose inboxes are flushed *) in
  let condition =
    if not general then None
    else
      Some
        {
          Sched.pass_condition with
          c_route =
            (fun ~now ~round ~src ~dst ~lat ->
              match defer ~round ~src ~dst with
              | Some k -> Sched.Defer (now + k)
              | None -> Sched.Deliver lat);
        }
  in
  (* The model: every send in send order, read in round [sent + delay]; a
     round's parked mail comes before the previous round's sends. *)
  let sends =
    List.concat_map
      (fun r ->
        List.concat_map
          (fun p ->
            List.concat_map
              (function
                | To (dst, tag, pay) -> [ (r, p, dst, tag, pay) ]
                | Many (dsts, tag, pay) -> List.map (fun dst -> (r, p, dst, tag, pay)) dsts)
              (plan (r, p)))
          (List.init n Fun.id))
      (List.init rounds Fun.id)
  in
  let read_in (r, src, dst, _, _) =
    r + if general then Option.value ~default:1 (defer ~round:r ~src ~dst) else 1
  in
  let expected r dst =
    if r = flushed then []
    else
      let arriving = List.filter (fun ((_, _, d, _, _) as m) -> d = dst && read_in m = r) sends in
      let parked, direct = List.partition (fun (r', _, _, _, _) -> r' < r - 1) arriving in
      List.map (fun (_, src, _, tag, pay) -> (src, tag, Bytes.to_string pay)) (parked @ direct)
  in
  let net = create_on ?condition ~n ~corrupt:[] () in
  let render inbox = List.map (fun (m : Wire.msg) -> (m.src, m.tag, Bytes.to_string m.payload)) inbox in
  let got = Hashtbl.create 32 in
  let handler p ~round ~inbox =
    Hashtbl.replace got (round, p) (render inbox);
    List.iter
      (function
        | To (dst, tag, pay) -> Network.send net ~src:p ~dst ~tag pay
        | Many (dsts, tag, pay) -> Network.send_many net ~src:p ~dsts:(Array.of_list dsts) ~tag pay)
      (plan (round, p))
  in
  let run k =
    Views.run_lists net ~rounds:k ~extra:(fun ~round:_ -> Network.everyone net) (fun p -> Some (handler p))
  in
  run flushed;
  Network.flush net;
  run (rounds - flushed);
  for r = 0 to rounds do
    for p = 0 to n - 1 do
      let inbox = if r = rounds then render (Views.inbox net p) else Hashtbl.find got (r, p) in
      Alcotest.(check (list (triple int string string)))
        (Printf.sprintf "round %d, party %d" r p) (expected r p) inbox
    done
  done

let test_bodies_match_model () =
  bodies_match_model ~general:false ();
  bodies_match_model ~general:true ();
  (* Round 0's fan-out copy and message to party 0 come back from the heap
     in round 3, with round 1's message to it. *)
  let defer ~round ~src ~dst =
    match (round, src, dst) with 0, 2, 0 -> Some 3 | 1, 3, 0 -> Some 2 | _ -> None
  in
  bodies_match_model ~defer ~general:true ()

(* --- Engine: a 2-round ping/pong across two instances --- *)

let test_engine_multiplexing () =
  let net = Network.create ~n:4 ~corrupt:[] () in
  let log = ref [] in
  (* instance "a": 0 <-> 1; instance "b": 2 <-> 3. Same tag namespace. *)
  let mk_machine me peer inst =
    {
      Engine.m_send =
        (fun ~round out ->
          if round = 0 then out.send peer (Bytes.of_string (Printf.sprintf "%s-ping-%d" inst me)));
      m_recv =
        (fun ~round v ->
          for i = 0 to Inbox.length v - 1 do
            log := (inst, me, round, Inbox.src v i, Bytes.to_string (Inbox.payload v i)) :: !log
          done);
    }
  in
  let machines p =
    match p with
    | 0 -> [ ("a", mk_machine 0 1 "a") ]
    | 1 -> [ ("a", mk_machine 1 0 "a") ]
    | 2 -> [ ("b", mk_machine 2 3 "b") ]
    | 3 -> [ ("b", mk_machine 3 2 "b") ]
    | _ -> []
  in
  Engine.run net ~tag:"test" ~rounds:1 ~machines ();
  let entries = List.sort compare !log in
  (* every party got exactly its peer's ping for its own instance, round 0 *)
  let expected =
    List.sort compare
      [
        ("a", 0, 0, 1, "a-ping-1");
        ("a", 1, 0, 0, "a-ping-0");
        ("b", 2, 0, 3, "b-ping-3");
        ("b", 3, 0, 2, "b-ping-2");
      ]
  in
  Alcotest.(check int) "entry count" 4 (List.length entries);
  Alcotest.(check bool) "contents" true (entries = expected)

let test_engine_instance_isolation () =
  (* A message for instance "a" must never reach machine "b" even on the
     same party. *)
  let net = Network.create ~n:2 ~corrupt:[] () in
  let b_got = ref 0 in
  let machines p =
    match p with
    | 0 ->
      [
        ( "a",
          {
            Engine.m_send = (fun ~round out -> if round = 0 then out.send 1 (Bytes.of_string "x"));
            m_recv = (fun ~round:_ _ -> ());
          } );
      ]
    | 1 ->
      [
        ( "a",
          { Engine.m_send = (fun ~round:_ _ -> ()); m_recv = (fun ~round:_ _ -> ()) } );
        ( "b",
          {
            Engine.m_send = (fun ~round:_ _ -> ());
            m_recv = (fun ~round:_ v -> b_got := !b_got + Inbox.length v);
          } );
      ]
    | _ -> []
  in
  Engine.run net ~tag:"iso" ~rounds:1 ~machines ();
  Alcotest.(check int) "b received nothing" 0 !b_got

(* Demux keeps each instance's deliveries in inbox order across several
   sources, with another instance's traffic interleaved on the same party. *)
let test_engine_delivery_order () =
  let net = Network.create ~n:4 ~corrupt:[] () in
  let got = Hashtbl.create 4 in
  let machine p inst =
    {
      Engine.m_send =
        (fun ~round out ->
          if round = 0 && p < 3 then
            List.iter
              (fun k -> out.send 3 (Bytes.of_string (Printf.sprintf "%s:%d.%d" inst p k)))
              [ 0; 1; 2 ]);
      m_recv =
        (fun ~round v ->
          if p = 3 && round = 0 then
            Hashtbl.replace got inst
              (List.map (fun (src, b) -> (src, Bytes.to_string b)) (msgs_of v)));
    }
  in
  let machines p = [ ("x", machine p "x"); ("y", machine p "y") ] in
  Engine.run net ~tag:"ord" ~rounds:1 ~machines ();
  List.iter
    (fun inst ->
      Alcotest.(check (list (pair int string)))
        (inst ^ " in source then send order")
        (List.concat_map
           (fun p -> List.map (fun k -> (p, Printf.sprintf "%s:%d.%d" inst p k)) [ 0; 1; 2 ])
           [ 0; 1; 2 ])
        (Option.value ~default:[] (Hashtbl.find_opt got inst)))
    [ "x"; "y" ]

(* Only an exact "tag/instance" for a hosted instance is delivered: a
   lookalike tag prefix, an instance the party does not host and the bare
   engine tag are dropped. The genuine message is built afresh, so it is
   matched by content, not by the engine's interned tag. *)
let test_engine_drops_foreign_tags () =
  let net = Network.create ~n:2 ~corrupt:[] () in
  let got = Hashtbl.create 2 in
  let machine inst =
    {
      Engine.m_send = (fun ~round:_ _ -> ());
      m_recv =
        (fun ~round:_ v ->
          Hashtbl.replace got inst
            (List.map (fun (_, b) -> Bytes.to_string b) (msgs_of v)
            @ Option.value ~default:[] (Hashtbl.find_opt got inst)));
    }
  in
  let machines p = if p = 1 then [ ("a", machine "a"); ("b", machine "b") ] else [] in
  List.iter
    (fun tag -> Network.send net ~src:0 ~dst:1 ~tag (Bytes.of_string tag))
    [ "isox/a"; "iso/c"; "iso"; "iso/"; String.concat "/" [ "iso"; "a" ] ];
  Engine.run net ~tag:"iso" ~rounds:2 ~machines ();
  Alcotest.(check (list string)) "a gets only iso/a" [ "iso/a" ]
    (Option.value ~default:[] (Hashtbl.find_opt got "a"));
  Alcotest.(check (list string)) "b gets nothing" []
    (Option.value ~default:[] (Hashtbl.find_opt got "b"))

(* Engine sends carry the run's interned tag and are matched by pointer;
   a message whose tag is a freshly built equal string still reaches its
   slot, in delivery order among the engine's own, while a same-length
   lookalike for an instance nobody hosts is dropped. *)
let test_engine_fresh_tag_dispatch () =
  let net = Network.create ~n:2 ~corrupt:[] () in
  let got = Hashtbl.create 2 in
  let record inst msgs =
    Hashtbl.replace got inst
      (Option.value ~default:[] (Hashtbl.find_opt got inst)
      @ List.map (fun (_, b) -> Bytes.to_string b) msgs)
  in
  let machine inst sends =
    {
      Engine.m_send =
        (fun ~round out ->
          if round = 0 then List.iter (fun (dst, payload) -> out.send dst payload) sends);
      m_recv = (fun ~round:_ v -> record inst (msgs_of v));
    }
  in
  let machines p =
    if p = 0 then [ ("a", machine "a0" [ (1, Bytes.of_string "engine") ]) ]
    else [ ("a", machine "a" []); ("b", machine "b" []) ]
  in
  List.iter
    (fun (tag, payload) -> Network.send net ~src:0 ~dst:1 ~tag (Bytes.of_string payload))
    [ (String.concat "/" [ "fr"; "a" ], "fresh-a"); ("fr/c", "lookalike");
      (Bytes.to_string (Bytes.of_string "fr/b"), "fresh-b") ];
  Engine.run net ~tag:"fr" ~rounds:2 ~machines ();
  Alcotest.(check (list string)) "a: fresh then engine" [ "fresh-a"; "engine" ]
    (Option.value ~default:[] (Hashtbl.find_opt got "a"));
  Alcotest.(check (list string)) "b: fresh" [ "fresh-b" ]
    (Option.value ~default:[] (Hashtbl.find_opt got "b"))

(* A party's instances send in a fixed order — the iteration order of a
   Hashtbl keyed by instance id, which every recorded transcript was made
   with. Pinned here through the network tap. *)
let test_engine_send_order_pinned () =
  let sent = ref [] in
  let tap : Repro_obs.Event.sink = function
    | Send { tag; _ } -> sent := tag :: !sent
    | _ -> ()
  in
  let net = Network.create ~sinks:[ tap ] ~n:2 ~corrupt:[] () in
  let machine =
    {
      Engine.m_send = (fun ~round out -> if round = 0 then out.send 1 Bytes.empty);
      m_recv = (fun ~round:_ _ -> ());
    }
  in
  let machines p =
    if p = 0 then List.map (fun inst -> (inst, machine)) [ "0"; "7"; "13" ] else []
  in
  Engine.run net ~tag:"ord" ~rounds:1 ~machines ();
  Alcotest.(check (list string)) "send order" [ "ord/7"; "ord/13"; "ord/0" ]
    (List.rev !sent)

let test_engine_rounds_observed () =
  (* m_recv must be called once per completed round even with no traffic. *)
  let net = Network.create ~n:1 ~corrupt:[] () in
  let rounds_seen = ref [] in
  let machines _ =
    [
      ( "solo",
        {
          Engine.m_send = (fun ~round:_ _ -> ());
          m_recv = (fun ~round v -> if Inbox.length v = 0 then rounds_seen := round :: !rounds_seen);
        } );
    ]
  in
  Engine.run net ~tag:"r" ~rounds:3 ~machines ();
  Alcotest.(check (list int)) "all rounds ticked" [ 0; 1; 2 ] (List.sort compare !rounds_seen)

(* --- Engine: the inbox view against the list demultiplexer --- *)

(* The engine as it was written over lists, kept as the model: each round
   a party's inbox list is split per instance by comparing full tags with
   [String.equal], in delivery order; every instance's [recv] gets its
   list, empty or not, in slot order (a Hashtbl's iteration order, as in
   the engine); then each instance's sends go out one [Network.send] at a
   time. *)
let list_engine net ?adversary ~tag ~rounds ~machines () =
  let start = Network.round net in
  let slots p =
    let tbl = Hashtbl.create 8 in
    List.iter (fun (inst, m) -> Hashtbl.add tbl inst m) (machines p);
    let acc = ref [] in
    Hashtbl.iter (fun inst m -> acc := (tag ^ "/" ^ inst, m) :: !acc) tbl;
    Array.of_list (List.rev !acc)
  in
  let participants =
    List.filter (fun p -> Network.is_honest net p && machines p <> []) (Network.everyone net)
  in
  let handler p =
    let slots = slots p in
    fun ~round ~inbox ->
      let local = round - start in
      if local > 0 then
        Array.iter
          (fun (ft, (_, recv)) ->
            recv ~round:(local - 1)
              (List.filter_map
                 (fun (m : Wire.msg) -> if String.equal m.tag ft then Some (m.src, m.payload) else None)
                 inbox))
          slots;
      if local < rounds then
        Array.iter
          (fun (ft, (send, _)) ->
            List.iter (fun (dst, pay) -> Network.send net ~src:p ~dst ~tag:ft pay) (send ~round:local))
          slots
  in
  let handlers = Array.make (Network.n net) None in
  List.iter (fun p -> handlers.(p) <- Some (handler p)) participants;
  Views.run_lists net ?adversary ~rounds:(rounds + 1)
    ~extra:(fun ~round:_ -> participants)
    (Array.get handlers)

(* The engine and the list demultiplexer run the same script on fresh
   five-party networks, party 4 corrupt: [hosted p] lists party p's
   instances of engine tag "eng", [plan p inst r] the (destinations,
   payload) fan-outs instance [inst] sends in local round [r], and the
   adversary sends a payload under each of [adv_tags] to parties 0-3 every
   round. Leftovers of an earlier phase sit in the first inboxes. On the
   general path a condition defers some sends past the barrier. Each
   machine must see, round by round, the (src, payload) list the list
   demultiplexer gives; that list is returned. *)
let engine_matches_model ~general ~hosted ~plan ~adv_tags ~rounds =
  let n = 5 in
  let adversary =
    {
      Network.adv_name = "tags";
      adv_step =
        (fun net ~round ~honest_staged:_ ->
          List.iteri
            (fun k tag ->
              List.iter
                (fun dst ->
                  Network.send net ~src:4 ~dst ~tag (Bytes.of_string (Printf.sprintf "adv%d.%d" round k)))
                [ 0; 1; 2; 3 ])
            adv_tags);
    }
  in
  let condition =
    if not general then None
    else
      Some
        {
          Sched.pass_condition with
          c_route =
            (fun ~now ~round ~src ~dst ~lat ->
              if (src + (2 * dst) + round) mod 7 = 0 then Sched.Defer (now + 2)
              else Sched.Deliver lat);
        }
  in
  let run engine =
    let seen = Hashtbl.create 64 in
    let net = create_on ?condition ~n ~corrupt:[ 4 ] () in
    List.iter
      (fun (dst, tag) -> Network.send net ~src:4 ~dst ~tag (Bytes.of_string ("old-" ^ tag)))
      [ (0, "eng/a"); (1, "old/b"); (0, "eng/c") ];
    let record p inst ~round msgs =
      Hashtbl.replace seen (p, inst, round)
        (List.map (fun (src, b) -> (src, Bytes.to_string b)) msgs)
    in
    engine net ~adversary ~record;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) seen [])
  in
  let via_view net ~adversary ~record =
    Engine.run net ~adversary ~tag:"eng" ~rounds
      ~machines:(fun p ->
        List.map
          (fun inst ->
            ( inst,
              {
                Engine.m_send =
                  (fun ~round out ->
                    List.iter
                      (function
                        | [ dst ], payload -> out.send dst payload
                        | dsts, payload -> out.send_many (Array.of_list dsts) payload)
                      (plan p inst round));
                m_recv = (fun ~round v -> record p inst ~round (msgs_of v));
              } ))
          (hosted p))
      ()
  in
  let via_lists net ~adversary ~record =
    list_engine net ~adversary ~tag:"eng" ~rounds
      ~machines:(fun p ->
        List.map
          (fun inst ->
            ( inst,
              ( (fun ~round ->
                  List.concat_map
                    (fun (dsts, payload) -> List.map (fun d -> (d, payload)) dsts)
                    (plan p inst round)),
                fun ~round msgs -> record p inst ~round msgs ) ))
          (hosted p))
      ()
  in
  let expected = run via_lists and got = run via_view in
  let entry = Alcotest.(pair (triple int string int) (list (pair int string))) in
  Alcotest.(check (list entry)) "per instance, per round" expected got;
  expected

let pay p inst r k = Bytes.of_string (Printf.sprintf "%d%s%d.%d" p inst r k)
let others p = List.filter (fun q -> q <> p) [ 0; 1; 2; 3; 4 ]

(* Parties 0-3 host one to three instances each, so every inbox mixes
   several slots and mail for instances the party does not host. Local
   round 2 sends nothing. The adversary adds, every round, a fresh
   byte-equal copy of a genuine tag (not the engine's interned pointer)
   and lookalike, bare and foreign tags. *)
let engine_view_matches_model ~general () =
  let rounds = 5 in
  let hosted = function
    | 0 -> [ "a"; "b"; "c" ]
    | 1 -> [ "a"; "b" ]
    | 2 -> [ "c"; "a" ]
    | 3 -> [ "b" ]
    | _ -> []
  in
  (* Sends as (destinations, payload) fan-outs; a singleton is one send. *)
  let plan p inst r =
    if r = 2 then []
    else
      match inst with
      | "b" when r mod 2 = 1 -> []
      | "b" -> [ ([ (p + 1) mod 4 ], pay p inst r 0); ([ 3; (p + 2) mod 4 ], pay p inst r 1) ]
      | _ ->
        [ ([ (p + 1 + r) mod 4 ], pay p inst r 0); (others p, pay p inst r 1);
          ([ (p + 3) mod 4; (p + 3) mod 4 ], pay p inst r 2) ]
  in
  let adv_tags =
    [ String.concat "/" [ "eng"; "a" ]; "eng/z"; "engx/a"; "eng"; "eng/a/";
      String.concat "/" [ "eng"; "c" ] ]
  in
  let expected = engine_matches_model ~general ~hosted ~plan ~adv_tags ~rounds in
  let count pred =
    List.length (List.filter (fun (_, msgs) -> List.exists (fun (_, b) -> pred b) msgs) expected)
  in
  Alcotest.(check int) "every instance, every round" (8 * rounds) (List.length expected);
  Alcotest.(check bool) "fresh-tag copies delivered" true
    (count (fun b -> String.length b > 3 && String.sub b 0 3 = "adv") > 0);
  Alcotest.(check bool) "empty rounds" true
    (List.exists (fun (_, msgs) -> msgs = []) expected);
  expected

let test_engine_view_matches_model () =
  let shortcut = engine_view_matches_model ~general:false () in
  let general = engine_view_matches_model ~general:true () in
  Alcotest.(check bool) "the deferrals moved mail" true (shortcut <> general)

(* The dispatch hands an inbox whose every message belongs to one instance
   over uncopied, and copies once the first message that does not (another
   instance's or a dropped one) arrives. Each script below meets the model
   on both delivery paths: one instance per party; three instances with
   all mail for one of them; the same with the adversary's foreign,
   lookalike and bare tags (dropped) after the genuine mail; and three
   instances that alternate within one inbox. *)
let test_engine_dispatch_whole_inboxes () =
  let rounds = 3 in
  let fan p inst r = [ (others p, pay p inst r 0); ([ (p + 1) mod 4 ], pay p inst r 1) ] in
  let all_hosts _ = [ "a"; "b"; "c" ] in
  let cases =
    [
      ("one instance", (fun p -> if p < 4 then [ "a" ] else []), fan, []);
      ( "all mail for one of three",
        all_hosts,
        (fun p inst r -> if inst = "b" then fan p inst r else []),
        [] );
      ( "one of three, foreign tags dropped",
        all_hosts,
        (fun p inst r -> if inst = "b" then fan p inst r else []),
        [ "eng/z"; "engx/b"; "eng"; "eng/b/" ] );
      ("mixed slots", all_hosts, (fun p inst r -> fan p inst r), [ String.concat "/" [ "eng"; "c" ] ]);
    ]
  in
  List.iter
    (fun (what, hosted, plan, adv_tags) ->
      List.iter
        (fun general ->
          let seen = engine_matches_model ~general ~hosted ~plan ~adv_tags ~rounds in
          Alcotest.(check bool)
            (Printf.sprintf "%s: mail delivered" what)
            true
            (List.exists (fun (_, msgs) -> List.length msgs > 1) seen))
        [ false; true ])
    cases

(* --- send_many against the equivalent send loop --- *)

(* The same script with each fan-out as one [send_many] or as a loop of
   [send]s, under a recording sink: repeated and corrupt destinations, an
   empty fan-out, a fan-out continued by a single send of its body, equal
   but distinct payloads and the adversary's own fan-out. The events, the
   metrics report and tag breakdown and every inbox must be equal. *)
let send_many_matches_loop ?condition () =
  let run many =
    let log = ref [] in
    let sink (ev : Repro_obs.Event.t) =
      let line =
        match ev with
        | Send { round; vt; src; dst; tag; payload; bits } ->
          Printf.sprintf "send r%d%s %d>%d %s %s %d" round
            (match vt with Some v -> Printf.sprintf " vt%d" v | None -> "")
            src dst tag (Bytes.to_string payload) bits
        | Round_end { round; scheduled; sent_bits; charged } ->
          Printf.sprintf "end r%d sched %d sent %d:%s" round scheduled sent_bits
            (String.concat ""
               (Array.to_list
                  (Array.map
                     (fun (c : Repro_obs.Event.charge) ->
                       Printf.sprintf " %d=%d/%d (%d/%d)" c.party c.round_bits c.round_peers
                         c.total_bits c.total_peers)
                     charged)))
        | Corrupt p -> Printf.sprintf "corrupt %d" p
        | _ -> "other"
      in
      log := line :: !log
    in
    let net = create_on ?condition ~sinks:[ sink ] ~n:5 ~corrupt:[ 4 ] () in
    let a = Bytes.of_string "A" and b = Bytes.of_string "BB" in
    let fan p dsts tag pay =
      if many then Network.send_many net ~src:p ~dsts:(Array.of_list dsts) ~tag pay
      else List.iter (fun dst -> Network.send net ~src:p ~dst ~tag pay) dsts
    in
    let handler p ~round ~inbox:_ =
      match (round, p) with
      | 0, 0 ->
        fan 0 [ 1; 2; 3 ] "t" a;
        Network.send net ~src:0 ~dst:4 ~tag:"t" a;
        fan 0 [ 3; 3; 1 ] "u" a;
        fan 0 [] "t" b;
        fan 0 [ 2 ] "t" b
      | 0, 1 ->
        fan 1 [ 0; 2 ] "t" b;
        fan 1 [ 0; 2 ] "t" (Bytes.copy b)
      | 1, 2 -> fan 2 [ 0; 1; 3; 4 ] "v" b
      | _ -> ()
    in
    let adversary =
      {
        Network.adv_name = "fan";
        adv_step =
          (fun _ ~round ~honest_staged:_ -> if round = 0 then fan 4 [ 0; 1; 3 ] "adv" a);
      }
    in
    let inboxes = ref [] in
    for _ = 1 to 2 do
      Views.run_lists net ~adversary ~rounds:1
        ~extra:(fun ~round:_ -> [ 0; 1; 2; 3 ])
        (fun p -> Some (handler p));
      inboxes :=
        List.map
          (fun p ->
            List.map (fun (m : Wire.msg) -> (m.src, m.tag, Bytes.to_string m.payload)) (Views.inbox net p))
          (Network.everyone net)
        :: !inboxes
    done;
    let m = Network.metrics net in
    (List.rev !log, Metrics.report m, Metrics.tag_breakdown m, !inboxes)
  in
  let ev_many, report_many, tags_many, in_many = run true in
  let ev_loop, report_loop, tags_loop, in_loop = run false in
  Alcotest.(check (list string)) "events" ev_loop ev_many;
  Alcotest.(check bool) "metrics report" true (report_loop = report_many);
  Alcotest.(check (list (pair string int))) "tag breakdown" tags_loop tags_many;
  Alcotest.(check (list (list (list (triple int string string))))) "inboxes" in_loop in_many;
  Alcotest.(check bool) "the script sends" true (List.length ev_many > 20)

let test_send_many_matches_loop () =
  send_many_matches_loop ();
  send_many_matches_loop ~condition:Sched.pass_condition ()

(* --- Minor words per message through the engine --- *)

(* Phase-king committees as phase F runs them: 43 committees of 22
   members drawn from 256 parties, all in one engine run. Every message
   crosses the emitter, the network and the dispatch, and a round of a
   machine allocates only its payload and its tally, shared by its ~21
   messages. Measured at 1.5 words per message here (the engine over
   inbox lists took 32). *)
let test_engine_minor_words () =
  let n = 256 and committees = 43 and size = 22 in
  let rng = Repro_util.Rng.create 5 in
  let members = Array.init committees (fun _ -> Repro_util.Rng.subset rng ~n ~size) in
  let hosted = Array.make n [] in
  Array.iteri
    (fun c ms ->
      List.iter
        (fun me ->
          let st = Repro_consensus.Phase_king.create ~members:ms ~me ~input:((me + c) mod 3 = 0) in
          hosted.(me) <- (string_of_int c, Repro_consensus.Phase_king.machine st) :: hosted.(me))
        ms)
    members;
  let rounds = Repro_consensus.Phase_king.rounds ~members:members.(0) in
  let net = Network.create ~n ~corrupt:[] () in
  let w0 = Gc.minor_words () in
  Engine.run net ~tag:"pk" ~rounds ~machines:(Array.get hosted) ();
  let words = Gc.minor_words () -. w0 in
  let m = Network.metrics net in
  let msgs = List.fold_left (fun acc p -> acc + Metrics.party_msgs_recv m p) 0 (Network.everyone net) in
  Alcotest.(check bool) "messages flowed" true (msgs > 100_000);
  let per_msg = words /. float_of_int msgs in
  if per_msg > 3. then Alcotest.failf "%.2f minor words per message (> 3)" per_msg

let test_tag_grouping () =
  List.iter
    (fun (tag, expected) ->
      Alcotest.(check string) tag expected (Metrics.tag_group tag))
    [
      ("aggr-ba-2/15", "aggr-ba");
      ("aggr-ba-3/4", "aggr-ba");
      ("sig-ba", "sig-ba");
      ("boost-x0", "boost-x");
      ("aecomm/pair-ba", "aecomm/pair-ba");
      ("aecomm/cert-x3", "aecomm/cert-x");
      ("elect/up/2", "elect/up");
      ("supreme-ba/ba", "supreme-ba");
    ]

let test_tag_breakdown_accumulates () =
  let net = Network.create ~n:2 ~corrupt:[] () in
  let handler p ~round ~inbox =
    ignore inbox;
    if round = 0 && p = 0 then begin
      Network.send net ~src:0 ~dst:1 ~tag:"aggr-ba-1/3" (Bytes.make 10 'a');
      Network.send net ~src:0 ~dst:1 ~tag:"aggr-ba-2/5" (Bytes.make 20 'a');
      Network.send net ~src:0 ~dst:1 ~tag:"sig-ba" (Bytes.make 5 'a')
    end
  in
  Views.run_lists net ~rounds:2
    ~extra:(fun ~round:_ -> Network.everyone net)
    (fun p -> Some (handler p));
  let bd = Metrics.tag_breakdown (Network.metrics net) in
  (match List.assoc_opt "aggr-ba" bd with
  | Some b -> Alcotest.(check bool) "aggr grouped" true (b > 30)
  | None -> Alcotest.fail "missing aggr-ba group");
  Alcotest.(check bool) "sig present" true (List.mem_assoc "sig-ba" bd);
  (* sorted descending *)
  let rec desc = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && desc rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (desc bd)

let test_report_empty_selection () =
  (* Selecting no parties (e.g. everyone corrupt) must yield zeros, never
     NaN, while the network-wide figures survive. *)
  let net = Network.create ~n:3 ~corrupt:[] () in
  let handler p ~round ~inbox =
    ignore inbox;
    if round = 0 && p = 0 then
      Network.send net ~src:0 ~dst:1 ~tag:"t" (Bytes.make 5 'x')
  in
  Views.run_lists net ~rounds:2
    ~extra:(fun ~round:_ -> Network.everyone net)
    (fun p -> Some (handler p));
  let r = Metrics.report ~include_party:(fun _ -> false) (Network.metrics net) in
  Alcotest.(check int) "max bytes zero" 0 r.Metrics.max_bytes;
  Alcotest.(check (float 0.)) "mean zero, not NaN" 0. r.Metrics.mean_bytes;
  Alcotest.(check (float 0.)) "p50 zero, not NaN" 0. r.Metrics.p50_bytes;
  Alcotest.(check int) "total still network-wide" 10 r.Metrics.total_bytes;
  Alcotest.(check int) "rounds survive" 2 r.Metrics.rounds

let test_breakdown_json_sorted () =
  let json = Repro_util.Json.compact (Metrics.breakdown_json [ ("b", 2); ("a", 1) ]) in
  Alcotest.(check string) "keys sorted by name" "{\"a\":1,\"b\":2}" json;
  Alcotest.(check string) "empty breakdown" "{}"
    (Repro_util.Json.compact (Metrics.breakdown_json []))

let test_msgs_recv_counted () =
  let net = Network.create ~n:2 ~corrupt:[] () in
  let handler p ~round ~inbox =
    ignore inbox;
    if round = 0 && p = 0 then begin
      Network.send net ~src:0 ~dst:1 ~tag:"t" Bytes.empty;
      Network.send net ~src:0 ~dst:1 ~tag:"t" Bytes.empty
    end
  in
  Views.run_lists net ~rounds:2
    ~extra:(fun ~round:_ -> Network.everyone net)
    (fun p -> Some (handler p));
  let m = Network.metrics net in
  Alcotest.(check int) "receiver msg count" 2 (Metrics.party_msgs_recv m 1);
  Alcotest.(check int) "sender received none" 0 (Metrics.party_msgs_recv m 0)

(* --- Metering: the network's Metrics against a per-message model --- *)

type planned = One of int * string * bytes | Fan of int array * string * bytes

(* One scripted run, stepped a round at a time. The model logs every send
   as the script makes it, with the round it is made in, and every
   delivery from the inboxes right after the round that made it closes
   (before a flush drops them); it then charges each message once, per
   message. The network's metrics must agree with it per party, in the
   report, in the tag breakdown and, with a sink attached, in every
   [Round_end]. Mail still parked or held when the run ends is in the
   send log and in no inbox: it must never be charged as received. *)
let metering_matches_model ?backend ?condition ~observed () =
  let n = 8 and rounds = 9 and flush_after = 3 and corrupt = [ 6 ] in
  let pays = Array.init 4 (fun k -> Bytes.make (5 * k) (Char.chr (Char.code 'a' + k))) in
  let tags = [| "ba-1/x"; "ba-2/y"; "elect/up/02" |] in
  (* Fan-outs, empty and with duplicates, interleaved with single sends;
     tags repeat physically, and two spellings share a group. *)
  let plan r p =
    let dst k = (p + (k * (r + 1))) mod n in
    let fixed =
      match (r, p) with
      | 0, 0 ->
        [ Fan ([| 1; 2; 3 |], "t", pays.(1)); Fan ([||], "empty", pays.(2));
          Fan ([| 4; 4; 5; 4 |], "t", pays.(1)); One (5, "t", pays.(3));
          Fan ([| 1; 2 |], String.concat "" [ "ba-"; "3/z" ], pays.(2)) ]
      | 1, 1 -> [ One (1, "self", pays.(0)); Fan ([| 1; 0; 1 |], "self", pays.(3)) ]
      | _ -> []
    in
    fixed
    @ [ Fan ([| dst 1; dst 2; dst 3 |], tags.((r + p) mod 3), pays.(p mod 4));
        One (dst 5, tags.(p mod 3), pays.((r + 1) mod 4));
        Fan ([| dst 2; dst 7 |], tags.(r mod 3), pays.(r mod 4)) ]
  in
  let summaries = ref [] in
  let sinks =
    if observed then
      [ (function Repro_obs.Event.Round_end s -> summaries := s :: !summaries | _ -> ()) ]
    else []
  in
  let net = Network.create ?backend ~sinks ~n ~corrupt () in
  Option.iter (Network.set_condition net) condition;
  let sends = ref [] and dels = ref [] and scheduled = Array.make rounds 0 in
  let act p = function
    | One (dst, tag, pay) ->
      sends := (Network.round net, p, dst, tag, Wire.size ~tag pay) :: !sends;
      Network.send net ~src:p ~dst ~tag pay
    | Fan (dsts, tag, pay) ->
      Array.iter
        (fun dst -> sends := (Network.round net, p, dst, tag, Wire.size ~tag pay) :: !sends)
        dsts;
      Network.send_many net ~src:p ~dsts ~tag pay
  in
  let adversary =
    { Network.adv_name = "fan";
      adv_step =
        (fun _ ~round:_ ~honest_staged:_ ->
          List.iter (act 6) [ Fan ([| 0; 1; 2 |], "adv", pays.(1)); One (3, "adv/x", pays.(2)) ]) }
  in
  for r = 0 to rounds - 1 do
    Network.run_slices net ~adversary ~rounds:1
      ~extra:(fun ~round:_ -> Network.everyone net)
      (fun p ->
        if List.mem p corrupt then None
        else
          Some
            (fun ~round _ ->
              scheduled.(round) <- scheduled.(round) + 1;
              List.iter (act p) (plan round p)));
    for p = 0 to n - 1 do
      List.iter
        (fun (m : Wire.msg) -> dels := (r, m.src, p, Wire.size ~tag:m.tag m.payload) :: !dels)
        (Views.inbox net p)
    done;
    if r = flush_after then begin
      (* staged outside any round's handlers, then dropped unsent *)
      act 0 (One (1, "t", pays.(3)));
      Network.flush net
    end
  done;
  let sends = List.rev !sends and dels = List.rev !dels in
  let m = Network.metrics net in
  (* The model: party [p]'s sends, deliveries and peers over the rounds
     [within] selects. *)
  let sum l = List.fold_left (fun acc (_, _, _, s) -> acc + s) 0 l in
  let charges ?(within = fun _ -> true) p =
    let out =
      List.filter_map
        (fun (r, src, dst, _, size) -> if src = p && within r then Some (r, src, dst, size) else None)
        sends
    and inn = List.filter (fun (r, _, dst, _) -> dst = p && within r) dels in
    let peers =
      List.sort_uniq compare
        (List.map (fun (_, _, d, _) -> d) out @ List.map (fun (_, s, _, _) -> s) inn)
    in
    (out, inn, peers)
  in
  let ctx fmt =
    Printf.sprintf ("%s%s, " ^^ fmt)
      (if observed then "observed" else "silent")
      (match condition with Some c -> " " ^ c.Sched.c_name | None -> "")
  in
  for p = 0 to n - 1 do
    let out, inn, peers = charges p in
    Alcotest.(check int) (ctx "party %d bytes sent" p) (sum out) (Metrics.party_bytes_sent m p);
    Alcotest.(check int) (ctx "party %d bytes" p) (sum out + sum inn) (Metrics.party_bytes m p);
    Alcotest.(check int) (ctx "party %d msgs received" p) (List.length inn)
      (Metrics.party_msgs_recv m p);
    Alcotest.(check int) (ctx "party %d locality" p) (List.length peers)
      (Metrics.party_locality m p)
  done;
  let honest = List.filter (fun p -> not (List.mem p corrupt)) (List.init n Fun.id) in
  let model_report =
    let bytes = List.map (fun p -> let out, inn, _ = charges p in sum out + sum inn) honest in
    let locs = List.map (fun p -> let _, _, peers = charges p in List.length peers) honest in
    let fbytes = List.map float_of_int bytes in
    let module M = Repro_util.Mathx in
    { Metrics.max_bytes = List.fold_left max 0 bytes; mean_bytes = M.mean fbytes;
      p50_bytes = M.percentile 0.5 fbytes; p95_bytes = M.percentile 0.95 fbytes;
      p99_bytes = M.percentile 0.99 fbytes; stddev_bytes = M.stddev fbytes;
      total_bytes = List.fold_left (fun acc (_, _, _, _, s) -> acc + s) 0 sends;
      max_msgs_sent =
        List.fold_left (fun acc p -> let out, _, _ = charges p in max acc (List.length out)) 0 honest;
      max_locality = List.fold_left max 0 locs;
      mean_locality = M.mean (List.map float_of_int locs); rounds }
  in
  Alcotest.(check bool) (ctx "report") true
    (Metrics.report ~include_party:(Network.is_honest net) m = model_report);
  let groups =
    List.fold_left
      (fun acc (_, _, _, tag, size) ->
        let g = Metrics.tag_group tag in
        (g, size + Option.value ~default:0 (List.assoc_opt g acc)) :: List.remove_assoc g acc)
      [] sends
  in
  let bd = Metrics.tag_breakdown m in
  Alcotest.(check (list (pair string int))) (ctx "tag breakdown") (List.sort compare groups)
    (List.sort compare bd);
  Alcotest.(check bool) (ctx "breakdown largest first") true
    (List.sort (fun (_, a) (_, b) -> compare b a) bd = bd);
  if observed then begin
    let render (s : Repro_obs.Event.round_summary) =
      Printf.sprintf "r%d sched %d sent %d:%s" s.round s.scheduled s.sent_bits
        (String.concat ""
           (Array.to_list
              (Array.map
                 (fun (c : Repro_obs.Event.charge) ->
                   Printf.sprintf " %d=%d/%d (%d/%d)" c.party c.round_bits c.round_peers c.total_bits
                     c.total_peers)
                 s.charged)))
    in
    let model r =
      let this = List.init n (fun p -> charges ~within:(( = ) r) p) in
      let touched =
        List.filter
          (fun p -> match List.nth this p with [], [], _ -> false | _ -> true)
          (List.init n Fun.id)
      in
      Printf.sprintf "r%d sched %d sent %d:%s" r scheduled.(r)
        (8 * List.fold_left (fun acc (r', _, _, _, s) -> if r' = r then acc + s else acc) 0 sends)
        (String.concat ""
           (List.map
              (fun p ->
                let out, inn, peers = List.nth this p in
                let tout, tinn, tpeers = charges ~within:(fun r' -> r' <= r) p in
                Printf.sprintf " %d=%d/%d (%d/%d)" p (8 * (sum out + sum inn)) (List.length peers)
                  (8 * (sum tout + sum tinn)) (List.length tpeers))
              touched))
    in
    Alcotest.(check (list string)) (ctx "round summaries") (List.init rounds model)
      (List.rev_map render !summaries)
  end;
  (sends, dels)

let test_metering_matches_model () =
  let both ?backend ?condition () =
    ignore (metering_matches_model ?backend ?condition ~observed:false ());
    metering_matches_model ?backend ?condition ~observed:true ()
  in
  let sends, dels = both () in
  Alcotest.(check bool) "a flushed send is never received" true
    (List.length dels < List.length sends);
  ignore (both ~condition:Sched.pass_condition ());
  ignore (both ~backend:(Sched.Async { Sched.default_async with a_jitter = 3; a_seed = 11 }) ());
  (* Churn and deferral by hand: party 2 is dark in rounds 2-4, party 5
     from round 7 to past the end; round 1's sends from party 1 arrive
     three ticks late, and round 5's to party 3 long after the run. *)
  let churn =
    { Sched.pass_condition with
      c_name = "churn+defer";
      c_down = (fun ~now:_ ~round p -> (p = 2 && round >= 2 && round < 5) || (p = 5 && round >= 7));
      c_route =
        (fun ~now ~round ~src ~dst ~lat ->
          if round = 1 && src = 1 then Sched.Defer (now + 3)
          else if round = 5 && dst = 3 then Sched.Defer (now + 100)
          else Sched.deliver lat) }
  in
  let sends, dels = both ~condition:churn () in
  let late_to d r0 l = List.exists (fun (r, _, dst, _, _) -> dst = d && r >= r0) l in
  Alcotest.(check bool) "mail held for party 5 at the end" true (late_to 5 6 sends);
  Alcotest.(check bool) "held mail never received" false
    (List.exists (fun (r, _, dst, _) -> dst = 5 && r >= 6) dels);
  let count l = List.length (List.filter (fun (r, d) -> d = 2 && r = 4) l) in
  Alcotest.(check bool) "mail to party 2 held, then received" true
    (count (List.map (fun (r, _, d, _) -> (r, d)) dels)
    > count (List.map (fun (r, _, d, _, _) -> (r, d)) sends));
  let module C = Repro_adversary.Condition in
  List.iter
    (fun c ->
      let condition = C.prepare c ~n:8 ~beta:0.25 ~seed:3 ~cfg:Sched.default_async in
      ignore (both ~condition ()))
    [ C.churn; C.partition ]

(* --- Wire canonical byte form: QCheck round-trip properties --- *)

(* Messages as the simulator produces them: non-negative endpoints,
   arbitrary tag text, payloads from empty through oversized (well past
   any single protocol message this repo emits) — the size distribution
   is skewed so 0 and the large extreme both actually occur. *)
let gen_msg =
  QCheck.Gen.(
    let* src = int_bound 100_000 in
    let* dst = int_bound 100_000 in
    let* tag = string_size ~gen:printable (int_bound 40) in
    let* payload_len =
      oneof [ return 0; int_bound 64; int_bound 4096; return 1_000_000 ]
    in
    let+ seed = int_bound 255 in
    {
      Wire.src;
      dst;
      tag;
      payload = Bytes.init payload_len (fun i -> Char.chr ((i + seed) land 0xff));
    })

let print_msg (m : Wire.msg) =
  Printf.sprintf "%d->%d [%s] %dB" m.src m.dst m.tag (Bytes.length m.payload)

let arb_msg = QCheck.make ~print:print_msg gen_msg

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire: decode (encode m) = m (payloads 0..1MB)"
    ~count:60 arb_msg (fun m ->
      match Wire.decode (Wire.encode m) with
      | None -> false
      | Some m' ->
        m'.Wire.src = m.Wire.src && m'.Wire.dst = m.Wire.dst
        && m'.Wire.tag = m.Wire.tag
        && Bytes.equal m'.Wire.payload m.Wire.payload)

(* Decoding is total on adversarial input: truncations and corruptions of a
   valid encoding (including length-prefix bytes, making the payload claim
   more bytes than exist) return None or a msg — never an exception. *)
let prop_wire_decode_total =
  QCheck.Test.make ~name:"wire: decode never raises on mangled input"
    ~count:200
    QCheck.(triple arb_msg (int_bound 1_000_000) (int_bound 255))
    (fun (m, pos, byte) ->
      let enc = Wire.encode m in
      let len = Bytes.length enc in
      (* truncate at pos *)
      let trunc = Bytes.sub enc 0 (min pos len) in
      ignore (Wire.decode trunc);
      (* flip a byte at pos *)
      let mangled = Bytes.copy enc in
      Bytes.set mangled (pos mod len) (Char.chr byte);
      ignore (Wire.decode mangled);
      (* appending trailing garbage must be rejected *)
      Wire.decode (Bytes.cat enc (Bytes.of_string "x")) = None)

let test_wire_encode_stable () =
  (* One pinned vector so the canonical byte form cannot drift silently:
     varint src, varint dst, len-prefixed tag, len-prefixed payload. *)
  let m = { Wire.src = 1; dst = 300; tag = "t"; payload = Bytes.of_string "ab" } in
  let enc = Wire.encode m in
  Alcotest.(check string) "canonical bytes" "\x01\xac\x02\x01t\x02ab"
    (Bytes.to_string enc);
  Alcotest.(check bool) "round-trips" true (Wire.decode enc = Some m)

(* The ledger's list adapter: each handler gets, as a list, the inbox
   [run_slices] hands over as a view. *)
let test_run_active_lists () =
  let run step =
    let net = Network.create ~n:4 ~corrupt:[] () in
    let got = ref [] in
    step net (fun p ~round inbox ->
        got := (round, p, inbox) :: !got;
        if round < 2 then
          Network.send_many net ~src:p ~dsts:[| (p + 1) mod 4; (p + 2) mod 4 |] ~tag:"t"
            (Bytes.of_string (string_of_int (p + round))));
    List.rev !got
  in
  let everyone ~round:_ = [ 0; 1; 2; 3 ] in
  let lists =
    run (fun net h ->
        Network.run_active net ~rounds:3 ~extra:everyone (fun p -> Some (fun ~round ~inbox -> h p ~round inbox)))
  in
  let views =
    run (fun net h ->
        Network.run_slices net ~rounds:3 ~extra:everyone (fun p ->
            Some (fun ~round v -> h p ~round (Views.to_list v))))
  in
  Alcotest.(check int) "every party ran every round" 12 (List.length lists);
  Alcotest.(check bool) "lists equal the views" true (lists = views)

let suite =
  [
    Alcotest.test_case "delivery next round" `Quick test_delivery_next_round;
    Alcotest.test_case "metrics accounting" `Quick test_metrics_accounting;
    Alcotest.test_case "report excludes corrupt" `Quick test_report_excludes_corrupt;
    Alcotest.test_case "rushing adversary" `Quick test_rushing_adversary_sees_staged;
    Alcotest.test_case "adversary cannot impersonate" `Quick
      test_adversary_cannot_impersonate;
    Alcotest.test_case "flush" `Quick test_flush_drops_in_flight;
    Alcotest.test_case "flush keeps parked mail" `Quick test_flush_keeps_parked_mail;
    Alcotest.test_case "payloads die (async)" `Quick test_payloads_die;
    Alcotest.test_case "in-flight mail not promoted" `Quick test_in_flight_not_promoted;
    Alcotest.test_case "observation order (async)" `Quick test_observation_order;
    Alcotest.test_case "engine multiplexing" `Quick test_engine_multiplexing;
    Alcotest.test_case "engine isolation" `Quick test_engine_instance_isolation;
    Alcotest.test_case "engine rounds" `Quick test_engine_rounds_observed;
    Alcotest.test_case "engine delivery order" `Quick test_engine_delivery_order;
    Alcotest.test_case "engine drops foreign tags" `Quick test_engine_drops_foreign_tags;
    Alcotest.test_case "engine fresh tag dispatch" `Quick test_engine_fresh_tag_dispatch;
    Alcotest.test_case "engine send order pinned" `Quick test_engine_send_order_pinned;
    Alcotest.test_case "engine inbox view = list model" `Quick test_engine_view_matches_model;
    Alcotest.test_case "send_many = send loop" `Quick test_send_many_matches_loop;
    Alcotest.test_case "engine minor words per message" `Quick test_engine_minor_words;
    Alcotest.test_case "engine whole-inbox dispatch = list model" `Quick
      test_engine_dispatch_whole_inboxes;
    Alcotest.test_case "tag grouping" `Quick test_tag_grouping;
    Alcotest.test_case "tag breakdown" `Quick test_tag_breakdown_accumulates;
    Alcotest.test_case "report empty selection" `Quick test_report_empty_selection;
    Alcotest.test_case "breakdown json" `Quick test_breakdown_json_sorted;
    Alcotest.test_case "msgs recv" `Quick test_msgs_recv_counted;
    Alcotest.test_case "metering = per-message model" `Quick test_metering_matches_model;
    Alcotest.test_case "wire encode stable" `Quick test_wire_encode_stable;
    QCheck_alcotest.to_alcotest prop_wire_roundtrip;
    QCheck_alcotest.to_alcotest prop_wire_decode_total;
    Alcotest.test_case "bodies = list model (async)" `Quick test_bodies_match_model;
    Alcotest.test_case "run_active lists = run_slices views" `Quick test_run_active_lists;
  ]
