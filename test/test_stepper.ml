(* Model-based check of the network stepper.

   [Network.run_slices] visits only the active set each round: the parties
   holding a delivery plus the protocol's spontaneous actors. The model
   below is the naive reading of the paper's round structure instead: every
   honest party 0..n-1 is visited every round, messages are delivered next
   round in send order, and a rushing adversary acts on the round's honest
   staged sends, kept as lists. QCheck generates protocols whose parties act
   only when armed (named in [extra]) or holding mail, so the two must agree
   exactly: on the full transcript, on every party's inbox in every round,
   on which parties acted with what inbox, and on the honest sends the
   rushing view shows the adversary and an attached observing condition.
   Between two runs a corrupt party's send is staged by hand; the view's
   honest filter must drop it. The stepper is checked on both of the
   executor's zero-knob paths: the lock-step shortcut, and the general
   (time, seq) path that attaching a condition forces (here one that routes
   like {!Sched.pass_condition} and records what it observes). *)

module Inbox = Repro_net.Inbox
module Network = Repro_net.Network
module Sched = Repro_net.Sched
module Wire = Repro_net.Wire

type case = {
  n : int;
  rounds : int;
  seed : int;
  corrupt : bool array;
  armed : int list array; (* per round, unsorted, with repeats *)
}

let mix parts = Hashtbl.hash (String.concat "|" parts)

(* One party's behaviour: silent unless armed or holding mail; otherwise a
   few sends whose destinations, tags and payloads derive from the inbox. *)
let behave c ~p ~round ~armed ~(inbox : Wire.msg list) =
  if (not armed) && inbox = [] then []
  else
    let seen =
      String.concat ","
        (List.map
           (fun (m : Wire.msg) ->
             Printf.sprintf "%d/%s/%s" m.src m.tag (Bytes.to_string m.payload))
           inbox)
    in
    let h = mix [ string_of_int c.seed; string_of_int p; string_of_int round; seen ] in
    let digest = Digest.to_hex (Digest.string seen) in
    List.init (h mod 3) (fun k ->
        let hk = mix [ string_of_int h; string_of_int k ] in
        ( hk mod c.n,
          Printf.sprintf "t%d" (hk / c.n mod 3),
          Bytes.of_string (Printf.sprintf "%d.%d.%d:%s" p round k digest) ))

(* The rushing adversary: corrupt parties echo some honest sends, chosen
   by and derived from the staged traffic, plus one spontaneous send. *)
let adversary_sends c ~round ~(honest_staged : Wire.msg list) =
  match List.filter (fun p -> c.corrupt.(p)) (List.init c.n Fun.id) with
  | [] -> []
  | bad ->
    let nb = List.length bad in
    let echoes =
      List.concat
        (List.mapi
           (fun i (m : Wire.msg) ->
             let h =
               mix [ string_of_int c.seed; string_of_int round; string_of_int i; m.tag ]
             in
             if h mod 3 <> 0 then []
             else
               [ ( List.nth bad (h mod nb),
                   (if h mod 2 = 0 then m.src else m.dst),
                   "adv",
                   Bytes.cat (Bytes.of_string "re:") m.payload ) ])
           honest_staged)
    in
    ( List.nth bad (round mod nb),
      round mod c.n,
      "adv",
      Bytes.of_string (string_of_int round) )
    :: echoes

let is_armed c round p = List.mem p c.armed.(round)

(* The stepper runs rounds [0, split) and [split, rounds) in two calls; in
   between, the first corrupt party (if any) stages one send, which goes
   out in round [split] ahead of that round's other sends. *)
let split c = c.seed mod c.rounds

let planted c =
  match List.find_opt (fun p -> c.corrupt.(p)) (List.init c.n Fun.id) with
  | Some src -> [ { Wire.src; dst = c.seed mod c.n; tag = "planted"; payload = Bytes.of_string "p" } ]
  | None -> []

(* Observations: the transcript (round, src, dst, tag, payload) in send
   order; every party's inbox at each round and after the last; the
   (round, party, inbox) of every visit that had something to act on; and
   per round, the honest sends the adversary and the condition saw. *)
type obs = {
  sends : (int * int * int * string * string) list;
  inboxes : (int * int * string list) list;
  acted : (int * int * string list) list;
  rushing : (int * string list) list;
  observed : (int * string list) list;
}

let show inbox =
  List.map
    (fun (m : Wire.msg) ->
      Printf.sprintf "%d>%d %s %s" m.src m.dst m.tag (Bytes.to_string m.payload))
    inbox

let snapshot round inbox_of n =
  List.init n (fun p -> (round, p, show (inbox_of p)))

(* The reference executor. *)
let model c =
  let inbox = Array.make c.n [] in
  let sends = ref [] and inboxes = ref [] and acted = ref [] and rushing = ref [] in
  for round = 0 to c.rounds - 1 do
    inboxes := List.rev_append (snapshot round (Array.get inbox) c.n) !inboxes;
    let staged = ref [] in
    for p = 0 to c.n - 1 do
      if not c.corrupt.(p) then begin
        let armed = is_armed c round p in
        if armed || inbox.(p) <> [] then
          acted := (round, p, show inbox.(p)) :: !acted;
        List.iter
          (fun (dst, tag, payload) ->
            staged := { Wire.src = p; dst; tag; payload } :: !staged)
          (behave c ~p ~round ~armed ~inbox:inbox.(p))
      end
    done;
    let honest_staged = List.rev !staged in
    rushing := (round, show honest_staged) :: !rushing;
    let all =
      (if round = split c then planted c else [])
      @ honest_staged
      @ List.map
          (fun (src, dst, tag, payload) -> { Wire.src; dst; tag; payload })
          (adversary_sends c ~round ~honest_staged)
    in
    Array.fill inbox 0 c.n [];
    List.iter
      (fun (m : Wire.msg) ->
        sends := (round, m.src, m.dst, m.tag, Bytes.to_string m.payload) :: !sends;
        inbox.(m.dst) <- inbox.(m.dst) @ [ m ])
      all
  done;
  inboxes := List.rev_append (snapshot c.rounds (Array.get inbox) c.n) !inboxes;
  let rushing = List.rev !rushing in
  {
    sends = List.rev !sends;
    inboxes = List.rev !inboxes;
    acted = List.rev !acted;
    rushing;
    observed = rushing;
  }

(* A condition that routes like [Sched.pass_condition] and records, per
   round, the honest sends it observes. *)
let observing seen =
  {
    Sched.pass_condition with
    c_name = "observe";
    c_observe =
      (fun ~now:_ ~round ~msgs ~corrupt:_ -> seen := (round, show (Views.to_list msgs)) :: !seen);
  }

(* The stepper under test. Handlers exist for every party, corrupt ones
   included: skipping those is the stepper's job. *)
let stepper ~observe c =
  let corrupt = List.filter (fun p -> c.corrupt.(p)) (List.init c.n Fun.id) in
  let sends = ref [] and inboxes = ref [] and acted = ref [] in
  let rushing = ref [] and observed = ref [] in
  let ran = ref (-1) in
  let tap : Repro_obs.Event.sink = function
    | Send { round; src; dst; tag; payload; _ } ->
      sends := (round, src, dst, tag, Bytes.to_string payload) :: !sends
    | _ -> ()
  in
  let net = Network.create ~sinks:[ tap ] ~n:c.n ~corrupt () in
  if observe then Network.set_condition net (observing observed);
  let adversary =
    {
      Network.adv_name = "model-echo";
      adv_step =
        (fun net ~round ~honest_staged ->
          inboxes := List.rev_append (snapshot round (Views.inbox net) c.n) !inboxes;
          let honest_staged = Views.to_list honest_staged in
          rushing := (round, show honest_staged) :: !rushing;
          List.iter
            (fun (src, dst, tag, payload) -> Network.send net ~src ~dst ~tag payload)
            (adversary_sends c ~round ~honest_staged));
    }
  in
  let handler p ~round v =
    let inbox = Views.to_list v in
    ran := round;
    acted := (round, p, show inbox) :: !acted;
    List.iter
      (fun (dst, tag, payload) -> Network.send net ~src:p ~dst ~tag payload)
      (behave c ~p ~round ~armed:(is_armed c round p) ~inbox)
  in
  let run rounds =
    Network.run_slices net ~adversary ~rounds
      ~extra:(fun ~round -> c.armed.(round))
      (fun p ->
        if !ran = Network.round net then
          QCheck.Test.fail_reportf "round %d: party %d looked up after a handler ran"
            !ran p;
        Some (handler p))
  in
  run (split c);
  List.iter (fun (m : Wire.msg) -> Network.send net ~src:m.src ~dst:m.dst ~tag:m.tag m.payload) (planted c);
  run (c.rounds - split c);
  inboxes := List.rev_append (snapshot c.rounds (Views.inbox net) c.n) !inboxes;
  {
    sends = List.rev !sends;
    inboxes = List.rev !inboxes;
    acted = List.rev !acted;
    rushing = List.rev !rushing;
    observed = List.rev !observed;
  }

let gen_case =
  QCheck.Gen.(
    let* n = int_range 2 24 in
    let* rounds = int_range 1 8 in
    let* seed = int_bound 1_000_000 in
    let* corrupt = array_repeat n (map (fun k -> k = 0) (int_bound 3)) in
    let* armed = array_repeat rounds (list_size (int_bound 4) (int_bound (n - 1))) in
    return { n; rounds; seed; corrupt; armed })

let print_case c =
  Printf.sprintf "n=%d rounds=%d seed=%d corrupt=[%s] armed=[%s]" c.n c.rounds c.seed
    (String.concat ";"
       (List.filter_map
          (fun p -> if c.corrupt.(p) then Some (string_of_int p) else None)
          (List.init c.n Fun.id)))
    (String.concat " | "
       (Array.to_list
          (Array.map (fun l -> String.concat "," (List.map string_of_int l)) c.armed)))

let prop_stepper_matches_model =
  QCheck.Test.make ~count:300 ~name:"run_slices equals the every-party model"
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let want = model c in
      List.iter
        (fun (name, observe) ->
          let got = stepper ~observe c in
          if got.sends <> want.sends then
            QCheck.Test.fail_reportf "%s: transcript differs (%d vs %d sends)" name
              (List.length got.sends) (List.length want.sends);
          if got.inboxes <> want.inboxes then
            QCheck.Test.fail_reportf "%s: a per-round inbox differs" name;
          if got.acted <> want.acted then
            QCheck.Test.fail_reportf "%s: visits differ" name;
          if got.rushing <> want.rushing then
            QCheck.Test.fail_reportf "%s: the adversary's view differs" name;
          if got.observed <> (if observe then want.observed else []) then
            QCheck.Test.fail_reportf "%s: the condition's view differs" name)
        [ ("shortcut", false); ("general", true) ];
      true)

(* Minor words of one round in which every party of [n] sends [per]
   messages (one shared payload), on a network built by [make] and run
   with [adversary]. *)
let round_words ~n ~per ~make ?adversary () =
  let net = make () in
  let payload = Bytes.make 16 'v' in
  let dsts = Array.init per (fun k -> k mod n) in
  let handler p ~round:_ _ = Network.send_many net ~src:p ~dsts ~tag:"v" payload in
  let run () =
    Network.run_slices net ?adversary ~rounds:1 ~extra:(fun ~round:_ -> Network.everyone net)
      (fun p -> Some (handler p))
  in
  (* The first round grows the network's buffers. *)
  run ();
  let w0 = Gc.minor_words () in
  run ();
  Gc.minor_words () -. w0

(* The rushing view allocates nothing per message. A round of 12,700
   honest sends with an adversary that reads every message of the view
   allocates less than one word per message more than the same round with
   nobody reading it: under [Sched.pass_condition], whose observer asks
   for the view either way, and on the lock-step shortcut, where only the
   adversary asks for it, so that the view's building is counted too. *)
let test_rushing_view_words () =
  let n = 128 and per = 100 in
  let sum = ref 0 in
  let reader =
    {
      Network.adv_name = "reader";
      adv_step =
        (fun _ ~round:_ ~honest_staged:v ->
          for k = 0 to Inbox.length v - 1 do
            sum :=
              !sum + Inbox.src v k + Inbox.dst v k + String.length (Inbox.tag v k)
              + Bytes.length (Inbox.payload v k)
          done);
    }
  in
  let msgs = float_of_int ((n - 1) * per) in
  List.iter
    (fun (name, condition) ->
      let make () =
        let net = Network.create ~n ~corrupt:[ 0 ] () in
        Option.iter (Network.set_condition net) condition;
        net
      in
      sum := 0;
      let quiet = round_words ~n ~per ~make () in
      let read = round_words ~n ~per ~make ~adversary:reader () in
      Alcotest.(check bool) (name ^ ": the adversary read every message") true (!sum > 0);
      let extra = (read -. quiet) /. msgs in
      if extra >= 1. then Alcotest.failf "%s: the rushing view adds %.2f words per message" name extra)
    [ ("pass_condition", Some Sched.pass_condition); ("shortcut", None) ]

(* Routing allocates nothing per message: a round of 12,700 sends under
   [Sched.pass_condition], which draws and routes every send on the
   general path, allocates less than one word per message more than the
   same round on the lock-step shortcut. A boxed [Deliver lat] per verdict
   would add two. *)
let test_routing_words () =
  let n = 128 and per = 100 in
  let make condition () =
    let net = Network.create ~n ~corrupt:[ 0 ] () in
    Option.iter (Network.set_condition net) condition;
    net
  in
  let msgs = float_of_int ((n - 1) * per) in
  let shortcut = round_words ~n ~per ~make:(make None) () in
  let routed = round_words ~n ~per ~make:(make (Some Sched.pass_condition)) () in
  let extra = (routed -. shortcut) /. msgs in
  if extra >= 1. then
    Alcotest.failf "pass_condition adds %.2f words per message (%.0f vs %.0f)" extra routed
      shortcut

let suite =
  [
    QCheck_alcotest.to_alcotest prop_stepper_matches_model;
    Alcotest.test_case "routing allocates nothing per message" `Quick test_routing_words;
    Alcotest.test_case "rushing view allocates nothing per message" `Quick test_rushing_view_words;
  ]
