(* Model-based check of the network stepper.

   [Network.run_active] visits only the active set each round: the parties
   holding a delivery plus the protocol's spontaneous actors. The model
   below is the naive reading of the paper's round structure instead: every
   honest party 0..n-1 is visited every round, messages are delivered next
   round in send order, and a rushing adversary acts on the round's honest
   staged sends. QCheck generates protocols whose parties act only when
   armed (named in [extra]) or holding mail, so the two must agree exactly:
   on the full transcript, on every party's inbox in every round, and on
   which parties acted with what inbox. The stepper is checked on both of
   the executor's zero-knob paths: the lock-step shortcut, and the general
   (time, seq) path that attaching {!Sched.pass_condition} forces. *)

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

(* Observations: the transcript (round, src, dst, tag, payload) in send
   order; every party's inbox at each round and after the last; and the
   (round, party, inbox) of every visit that had something to act on. *)
type obs = {
  sends : (int * int * int * string * string) list;
  inboxes : (int * int * string list) list;
  acted : (int * int * string list) list;
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
  let sends = ref [] and inboxes = ref [] and acted = ref [] in
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
    let all =
      honest_staged
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
  { sends = List.rev !sends; inboxes = List.rev !inboxes; acted = List.rev !acted }

(* The stepper under test. Handlers exist for every party, corrupt ones
   included: skipping those is the stepper's job. *)
let stepper ?condition c =
  let corrupt = List.filter (fun p -> c.corrupt.(p)) (List.init c.n Fun.id) in
  let sends = ref [] and inboxes = ref [] and acted = ref [] in
  let ran = ref (-1) in
  let tap : Repro_obs.Event.sink = function
    | Send { round; src; dst; tag; payload; _ } ->
      sends := (round, src, dst, tag, Bytes.to_string payload) :: !sends
    | _ -> ()
  in
  let net = Network.create ~sinks:[ tap ] ~n:c.n ~corrupt () in
  Option.iter (Network.set_condition net) condition;
  let adversary =
    {
      Network.adv_name = "model-echo";
      adv_step =
        (fun net ~round ~honest_staged ->
          inboxes := List.rev_append (snapshot round (Network.inbox net) c.n) !inboxes;
          List.iter
            (fun (src, dst, tag, payload) -> Network.send net ~src ~dst ~tag payload)
            (adversary_sends c ~round ~honest_staged));
    }
  in
  let handler p ~round ~inbox =
    ran := round;
    acted := (round, p, show inbox) :: !acted;
    List.iter
      (fun (dst, tag, payload) -> Network.send net ~src:p ~dst ~tag payload)
      (behave c ~p ~round ~armed:(is_armed c round p) ~inbox)
  in
  Network.run_active net ~adversary ~rounds:c.rounds
    ~extra:(fun ~round -> c.armed.(round))
    (fun p ->
      if !ran = Network.round net then
        QCheck.Test.fail_reportf "round %d: party %d looked up after a handler ran"
          !ran p;
      Some (handler p));
  inboxes := List.rev_append (snapshot c.rounds (Network.inbox net) c.n) !inboxes;
  { sends = List.rev !sends; inboxes = List.rev !inboxes; acted = List.rev !acted }

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
  QCheck.Test.make ~count:300 ~name:"run_active equals the every-party model"
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let want = model c in
      List.iter
        (fun (name, condition) ->
          let got = stepper ?condition c in
          if got.sends <> want.sends then
            QCheck.Test.fail_reportf "%s: transcript differs (%d vs %d sends)" name
              (List.length got.sends) (List.length want.sends);
          if got.inboxes <> want.inboxes then
            QCheck.Test.fail_reportf "%s: a per-round inbox differs" name;
          if got.acted <> want.acted then
            QCheck.Test.fail_reportf "%s: visits differ" name)
        [ ("shortcut", None); ("general", Some Sched.pass_condition) ];
      true)

let suite = [ QCheck_alcotest.to_alcotest prop_stepper_matches_model ]
