(* Tests for the synchronous network simulator, metrics, and the protocol
   engine. *)

module Network = Repro_net.Network
module Metrics = Repro_net.Metrics
module Engine = Repro_net.Engine
module Wire = Repro_net.Wire
module Sched = Repro_net.Sched

let test_delivery_next_round () =
  let net = Network.create ~n:3 ~corrupt:[] () in
  let got = Array.make 3 [] in
  let handler p ~round ~inbox =
    got.(p) <- got.(p) @ List.map (fun (m : Wire.msg) -> (round, m.src, Bytes.to_string m.payload)) inbox;
    if round = 0 && p = 0 then
      Network.send net ~src:0 ~dst:1 ~tag:"t" (Bytes.of_string "hi")
  in
  Network.run_active net ~rounds:3
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
  Network.run_active net ~rounds:2
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
  Network.run_active net ~rounds:2
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
  Network.run_active net ~adversary ~rounds:2
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
  Network.run_active net ~adversary ~rounds:2
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
  Network.run_active net ~adversary ~rounds:1
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
  Network.run_active net ~rounds:1
    ~extra:(fun ~round:_ -> Network.everyone net)
    (fun p -> Some (handler p));
  Network.flush net;
  Network.run_active net ~rounds:1
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
  Network.run_active net ~rounds:1
    ~extra:(fun ~round:_ -> [ 0 ])
    (fun p ->
      Some (fun ~round:_ ~inbox:_ -> if p = 0 then Network.send net ~src:0 ~dst:1 ~tag:"phase-1" Bytes.empty));
  Network.flush net;
  let read = ref [] in
  Network.run_active net ~rounds:8
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
  Network.run_active net ~rounds:3
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
  Network.run_active net ~rounds:1
    ~extra:(fun ~round:_ -> [ 0 ])
    (fun _ -> Some (fun ~round:_ ~inbox:_ -> send_watched net w k));
  Alcotest.(check int) "delivered" 1 (List.length (Network.inbox net 1));
  Network.flush net;
  Alcotest.(check int) "flushed" 0 (List.length (Network.inbox net 1));
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
  Network.run_active net ~rounds
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
   events in send order, Deliver events in reverse delivery order, every
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
      | Deliver { src; dst; bits } -> Printf.sprintf "deliver %d>%d %d" src dst bits
      | Scheduled k -> Printf.sprintf "scheduled %d" k
      | Round_end r -> Printf.sprintf "end r%d" r
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
            seen := List.map (fun (m : Wire.msg) -> (m.src, m.dst, Bytes.to_string m.payload)) honest_staged;
            Network.send net ~src:3 ~dst:1 ~tag:"t" (Bytes.of_string "d0")
          end);
    }
  in
  let render inbox = List.map (fun (m : Wire.msg) -> (m.src, m.dst, Bytes.to_string m.payload)) inbox in
  let inboxes = ref [] in
  Network.run_active net ~adversary ~rounds:2
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
    (List.map (fun p -> render (Network.inbox net p)) (Network.everyone net));
  let vt r = match condition with None -> "" | Some _ -> Printf.sprintf " vt%d" r in
  let send r s d p = Printf.sprintf "send r%d%s %d>%d %s %d" r (vt r) s d p (8 * (String.length p + 5)) in
  Alcotest.(check (list string)) "event stream"
    [
      "corrupt 3";
      send 0 0 2 "a0"; send 0 0 1 "a1";
      send 0 1 2 "b0"; send 0 1 0 "b1"; send 0 1 2 "b2";
      send 0 2 1 "c0"; send 0 2 2 "c1"; send 0 2 0 "c2";
      "scheduled 3";
      send 0 3 1 "d0";
      "deliver 3>1 56"; "deliver 2>0 56"; "deliver 2>2 56"; "deliver 2>1 56";
      "deliver 1>2 56"; "deliver 1>0 56"; "deliver 1>2 56";
      "deliver 0>1 56"; "deliver 0>2 56";
      "end r0";
      send 1 2 0 "e";
      "scheduled 3";
      "deliver 2>0 48";
      "end r1";
    ]
    (List.rev !log)

let test_observation_order () =
  observation_order ();
  observation_order ~condition:Sched.pass_condition ()

(* --- Engine: a 2-round ping/pong across two instances --- *)

let test_engine_multiplexing () =
  let net = Network.create ~n:4 ~corrupt:[] () in
  let log = ref [] in
  (* instance "a": 0 <-> 1; instance "b": 2 <-> 3. Same tag namespace. *)
  let mk_machine me peer inst =
    {
      Engine.m_send =
        (fun ~round ->
          if round = 0 then [ (peer, Bytes.of_string (Printf.sprintf "%s-ping-%d" inst me)) ]
          else []);
      m_recv =
        (fun ~round msgs ->
          List.iter
            (fun (src, payload) ->
              log := (inst, me, round, src, Bytes.to_string payload) :: !log)
            msgs);
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
            Engine.m_send = (fun ~round -> if round = 0 then [ (1, Bytes.of_string "x") ] else []);
            m_recv = (fun ~round:_ _ -> ());
          } );
      ]
    | 1 ->
      [
        ( "a",
          { Engine.m_send = (fun ~round:_ -> []); m_recv = (fun ~round:_ _ -> ()) } );
        ( "b",
          {
            Engine.m_send = (fun ~round:_ -> []);
            m_recv = (fun ~round:_ msgs -> b_got := !b_got + List.length msgs);
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
        (fun ~round ->
          if round = 0 && p < 3 then
            List.map
              (fun k -> (3, Bytes.of_string (Printf.sprintf "%s:%d.%d" inst p k)))
              [ 0; 1; 2 ]
          else []);
      m_recv =
        (fun ~round msgs ->
          if p = 3 && round = 0 then
            Hashtbl.replace got inst
              (List.map (fun (src, b) -> (src, Bytes.to_string b)) msgs));
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
      Engine.m_send = (fun ~round:_ -> []);
      m_recv =
        (fun ~round:_ msgs ->
          Hashtbl.replace got inst
            (List.map (fun (_, b) -> Bytes.to_string b) msgs
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
      Engine.m_send = (fun ~round -> if round = 0 then sends else []);
      m_recv = (fun ~round:_ msgs -> record inst msgs);
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
      Engine.m_send = (fun ~round -> if round = 0 then [ (1, Bytes.empty) ] else []);
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
          Engine.m_send = (fun ~round:_ -> []);
          m_recv = (fun ~round msgs -> if msgs = [] then rounds_seen := round :: !rounds_seen);
        } );
    ]
  in
  Engine.run net ~tag:"r" ~rounds:3 ~machines ();
  Alcotest.(check (list int)) "all rounds ticked" [ 0; 1; 2 ] (List.sort compare !rounds_seen)

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
  Network.run_active net ~rounds:2
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
  Network.run_active net ~rounds:2
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
  Network.run_active net ~rounds:2
    ~extra:(fun ~round:_ -> Network.everyone net)
    (fun p -> Some (handler p));
  let m = Network.metrics net in
  Alcotest.(check int) "receiver msg count" 2 (Metrics.party_msgs_recv m 1);
  Alcotest.(check int) "sender received none" 0 (Metrics.party_msgs_recv m 0)

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
    Alcotest.test_case "tag grouping" `Quick test_tag_grouping;
    Alcotest.test_case "tag breakdown" `Quick test_tag_breakdown_accumulates;
    Alcotest.test_case "report empty selection" `Quick test_report_empty_selection;
    Alcotest.test_case "breakdown json" `Quick test_breakdown_json_sorted;
    Alcotest.test_case "msgs recv" `Quick test_msgs_recv_counted;
    Alcotest.test_case "wire encode stable" `Quick test_wire_encode_stable;
    QCheck_alcotest.to_alcotest prop_wire_roundtrip;
    QCheck_alcotest.to_alcotest prop_wire_decode_total;
  ]
