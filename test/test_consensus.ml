(* Tests for the committee consensus substrate: phase-king binary BA,
   Turpin-Coan multivalued BA, committee agreement, coin toss, and
   Dolev-Strong broadcast — including runs against active adversaries. *)

module Network = Repro_net.Network
module Engine = Repro_net.Engine
module Wire = Repro_net.Wire
open Repro_consensus

(* Run one protocol instance among [members] over a fresh network.
   [make p] builds party p's machine; [extract p] reads its output. *)
let run_committee ~n ~corrupt ~rounds ~adversary ~make =
  let net = Network.create ~n ~corrupt () in
  let machines p =
    if List.mem p corrupt then [] else [ ("i", make net p) ]
  in
  Engine.run net ?adversary ~tag:"test" ~rounds ~machines ();
  net

(* --- binary phase king --- *)

let members_of n = List.init n (fun i -> i)

let test_pk_all_agree_honest () =
  let n = 10 in
  let members = members_of n in
  let states = Array.init n (fun me -> Phase_king.create ~members ~me ~input:(me mod 2 = 0)) in
  let _net =
    run_committee ~n ~corrupt:[] ~rounds:(Phase_king.rounds ~members) ~adversary:None
      ~make:(fun _ p -> Phase_king.machine states.(p))
  in
  let outputs = Array.to_list (Array.map Phase_king.output states) in
  (match List.hd outputs with
  | Some _ -> ()
  | None -> Alcotest.fail "no decision");
  List.iter (fun o -> Alcotest.(check bool) "agreement" true (o = List.hd outputs)) outputs

let test_pk_validity () =
  (* unanimous input must be decided *)
  List.iter
    (fun bit ->
      let n = 7 in
      let members = members_of n in
      let states = Array.init n (fun me -> Phase_king.create ~members ~me ~input:bit) in
      let _ =
        run_committee ~n ~corrupt:[] ~rounds:(Phase_king.rounds ~members) ~adversary:None
          ~make:(fun _ p -> Phase_king.machine states.(p))
      in
      Array.iter
        (fun st -> Alcotest.(check (option bool)) "validity" (Some bit) (Phase_king.output st))
        states)
    [ true; false ]

(* Adversary: corrupt members send conflicting votes to split the honest
   parties (equivocation), every round. *)
let equivocator ~corrupt_set ~members =
  {
    Network.adv_name = "equivocator";
    adv_step =
      (fun net ~round:_ ~honest_staged:_ ->
        List.iter
          (fun c ->
            List.iteri
              (fun i p ->
                if p <> c then
                  let bit = if i mod 2 = 0 then 0 else 1 in
                  Network.send net ~src:c ~dst:p ~tag:"test/i"
                    (Bytes.make 1 (Char.chr bit)))
              members)
          corrupt_set);
  }

let test_pk_agreement_under_equivocation () =
  let n = 10 in
  let members = members_of n in
  let corrupt = [ 3; 7; 9 ] in
  (* t = 3 = (10-1)/3: at the tolerance boundary *)
  let states =
    Array.init n (fun me -> Phase_king.create ~members ~me ~input:(me mod 2 = 0))
  in
  let _ =
    run_committee ~n ~corrupt ~rounds:(Phase_king.rounds ~members)
      ~adversary:(Some (equivocator ~corrupt_set:corrupt ~members))
      ~make:(fun _ p -> Phase_king.machine states.(p))
  in
  let honest_out =
    List.filter_map
      (fun p -> if List.mem p corrupt then None else Phase_king.output states.(p))
      members
  in
  Alcotest.(check int) "all honest decided" (n - 3) (List.length honest_out);
  let first = List.hd honest_out in
  List.iter (fun o -> Alcotest.(check bool) "agreement" true (o = first)) honest_out

let test_pk_persistence_with_silent_corrupt () =
  (* honest unanimous, corrupt silent: decision must match honest inputs *)
  let n = 7 in
  let members = members_of n in
  let corrupt = [ 6; 5 ] in
  let states = Array.init n (fun me -> Phase_king.create ~members ~me ~input:true) in
  let _ =
    run_committee ~n ~corrupt ~rounds:(Phase_king.rounds ~members) ~adversary:None
      ~make:(fun _ p -> Phase_king.machine states.(p))
  in
  List.iter
    (fun p ->
      if not (List.mem p corrupt) then
        Alcotest.(check (option bool)) "validity" (Some true) (Phase_king.output states.(p)))
    members

(* --- multivalued BA --- *)

let run_multi ~n ~corrupt ~inputs ~adversary =
  let members = members_of n in
  let states =
    Array.init n (fun me -> Multi_ba.create ~members ~me ~input:(inputs me))
  in
  let _ =
    run_committee ~n ~corrupt ~rounds:(Multi_ba.rounds ~members) ~adversary
      ~make:(fun _ p -> Multi_ba.machine states.(p))
  in
  (states, members)

let test_multi_unanimous () =
  let v = Bytes.of_string "the-value" in
  let states, _ = run_multi ~n:7 ~corrupt:[] ~inputs:(fun _ -> v) ~adversary:None in
  Array.iter
    (fun st ->
      match Multi_ba.output st with
      | Some (Some out) -> Alcotest.(check bytes) "unanimous value wins" v out
      | _ -> Alcotest.fail "expected decision")
    states

let test_multi_split_inputs_agree () =
  let inputs p = Bytes.of_string (Printf.sprintf "v%d" (p mod 3)) in
  let states, members = run_multi ~n:9 ~corrupt:[] ~inputs ~adversary:None in
  let outs = List.map (fun p -> Multi_ba.output states.(p)) members in
  (* all the same, and either None or one of the honest inputs *)
  let first = List.hd outs in
  List.iter (fun o -> Alcotest.(check bool) "agreement" true (o = first)) outs;
  match first with
  | Some (Some v) ->
    Alcotest.(check bool) "output is an honest input" true
      (List.exists (fun p -> Bytes.equal (inputs p) v) members)
  | Some None -> ()
  | None -> Alcotest.fail "no decision"

let test_multi_with_equivocator () =
  let n = 10 in
  let corrupt = [ 0; 4 ] in
  let v = Bytes.of_string "honest" in
  let members = members_of n in
  let states = Array.init n (fun me -> Multi_ba.create ~members ~me ~input:v) in
  let adversary =
    {
      Network.adv_name = "garbage";
      adv_step =
        (fun net ~round:_ ~honest_staged:_ ->
          List.iter
            (fun c ->
              List.iter
                (fun p ->
                  if p <> c then
                    Network.send net ~src:c ~dst:p ~tag:"test/i"
                      (Bytes.of_string (Printf.sprintf "junk-%d-%d" c p)))
                members)
            corrupt);
    }
  in
  let _ =
    run_committee ~n ~corrupt ~rounds:(Multi_ba.rounds ~members) ~adversary:(Some adversary)
      ~make:(fun _ p -> Multi_ba.machine states.(p))
  in
  List.iter
    (fun p ->
      if not (List.mem p corrupt) then
        match Multi_ba.output states.(p) with
        | Some (Some out) -> Alcotest.(check bytes) "honest value decided" v out
        | _ -> Alcotest.fail "expected the honest value")
    members

(* --- committee agreement on payloads --- *)

let test_committee_agree_unanimous () =
  let n = 7 in
  let members = members_of n in
  let payload = Bytes.of_string (String.make 500 'p') in
  let states =
    Array.init n (fun me -> Committee.create ~members ~me ~candidate:payload ())
  in
  let _ =
    run_committee ~n ~corrupt:[] ~rounds:(Committee.rounds ~members) ~adversary:None
      ~make:(fun _ p -> Committee.machine states.(p))
  in
  Array.iter
    (fun st ->
      match Committee.output st with
      | Some (Some out) -> Alcotest.(check bytes) "payload adopted" payload out
      | _ -> Alcotest.fail "expected payload")
    states

let test_committee_agree_divergent_candidates () =
  let n = 9 in
  let members = members_of n in
  let candidate p = Bytes.of_string (Printf.sprintf "candidate-%d" (p mod 2)) in
  let states =
    Array.init n (fun me -> Committee.create ~members ~me ~candidate:(candidate me) ())
  in
  let _ =
    run_committee ~n ~corrupt:[] ~rounds:(Committee.rounds ~members) ~adversary:None
      ~make:(fun _ p -> Committee.machine states.(p))
  in
  let outs = Array.to_list (Array.map Committee.output states) in
  let first = List.hd outs in
  List.iter (fun o -> Alcotest.(check bool) "agreement" true (o = first)) outs;
  match first with
  | Some (Some v) ->
    Alcotest.(check bool) "winner is someone's candidate" true
      (List.exists (fun p -> Bytes.equal (candidate p) v) members)
  | Some None -> ()
  | None -> Alcotest.fail "no decision"

let test_committee_agree_validity_filter () =
  (* a valid() that rejects everything must yield Some None, consistently *)
  let n = 7 in
  let members = members_of n in
  let states =
    Array.init n (fun me ->
        Committee.create ~members ~me ~candidate:(Bytes.of_string "x")
          ~valid:(fun _ -> false) ())
  in
  let _ =
    run_committee ~n ~corrupt:[] ~rounds:(Committee.rounds ~members) ~adversary:None
      ~make:(fun _ p -> Committee.machine states.(p))
  in
  Array.iter
    (fun st -> Alcotest.(check bool) "rejected" true (Committee.output st = Some None))
    states

(* The lazy adoption path: a member whose own candidate lost takes the
   winner from the payloads it received. 8 of 9 members hold A (each its
   own copy), member 4 holds B; A wins the digest BA outright. *)
let test_committee_adopts_received_winner () =
  let n = 9 in
  let members = members_of n in
  let a = String.make 300 'a' and b = String.make 300 'b' in
  let candidates =
    Array.init n (fun me -> Bytes.of_string (if me = 4 then b else a))
  in
  let states =
    Array.init n (fun me -> Committee.create ~members ~me ~candidate:candidates.(me) ())
  in
  let _ =
    run_committee ~n ~corrupt:[] ~rounds:(Committee.rounds ~members) ~adversary:None
      ~make:(fun _ p -> Committee.machine states.(p))
  in
  Array.iteri
    (fun p st ->
      match Committee.output st with
      | Some (Some out) ->
        Alcotest.(check string) (Printf.sprintf "member %d adopts A" p) a
          (Bytes.to_string out);
        if p = 4 then
          Alcotest.(check bool) "loser's output is not its own candidate" false
            (out == candidates.(4))
      | _ -> Alcotest.fail (Printf.sprintf "member %d: expected A" p))
    states

(* Digests are lazy: a unanimous committee hashes each member's candidate
   once (its BA input) and nothing else — 7 [committee-agree] hashes for 7
   members, where an eager digest -> payload table costs 7 * (2 + 6). *)
let test_committee_unanimous_hash_count () =
  let module C = Repro_obs.Counters in
  let hashes = C.make "hashx.hash" in
  let was = C.is_enabled () in
  C.enable ();
  let n = 7 in
  let members = members_of n in
  let payload = Bytes.of_string (String.make 500 'p') in
  let before = C.value hashes in
  let states =
    Array.init n (fun me -> Committee.create ~members ~me ~candidate:payload ())
  in
  let _ =
    run_committee ~n ~corrupt:[] ~rounds:(Committee.rounds ~members) ~adversary:None
      ~make:(fun _ p -> Committee.machine states.(p))
  in
  let delta = C.value hashes - before in
  if not was then C.disable ();
  Alcotest.(check int) "hashx.hash delta" 7 delta;
  Array.iter
    (fun st ->
      Alcotest.(check bool) "payload adopted" true
        (Committee.output st = Some (Some payload)))
    states

(* --- coin toss --- *)

let run_coin ~n ~corrupt ~adversary ~seed =
  let members = members_of n in
  let rng = Repro_util.Rng.create seed in
  let shared = Coin_toss.shared () in
  let states =
    Array.init n (fun me ->
        Coin_toss.create ~shared ~members ~me
          ~rng:(Repro_util.Rng.of_label rng (string_of_int me)))
  in
  let _ =
    run_committee ~n ~corrupt ~rounds:(Coin_toss.rounds ~members) ~adversary
      ~make:(fun _ p -> Coin_toss.machine states.(p))
  in
  (states, members)

let test_coin_agreement () =
  let states, members = run_coin ~n:7 ~corrupt:[] ~adversary:None ~seed:1 in
  let coins = List.map (fun p -> Coin_toss.output states.(p)) members in
  (match List.hd coins with
  | Some c -> Alcotest.(check int) "kappa bytes" Repro_crypto.Hashx.kappa_bytes (Bytes.length c)
  | None -> Alcotest.fail "no coin");
  List.iter (fun c -> Alcotest.(check bool) "same coin" true (c = List.hd coins)) coins

let test_coin_differs_across_runs () =
  let s1, _ = run_coin ~n:7 ~corrupt:[] ~adversary:None ~seed:1 in
  let s2, _ = run_coin ~n:7 ~corrupt:[] ~adversary:None ~seed:2 in
  let c1 = Option.get (Coin_toss.output s1.(0)) in
  let c2 = Option.get (Coin_toss.output s2.(0)) in
  Alcotest.(check bool) "fresh randomness" false (Bytes.equal c1 c2)

let test_coin_with_silent_corrupt () =
  let corrupt = [ 2; 5 ] in
  let states, members = run_coin ~n:7 ~corrupt ~adversary:None ~seed:3 in
  let coins =
    List.filter_map
      (fun p -> if List.mem p corrupt then None else Coin_toss.output states.(p))
      members
  in
  Alcotest.(check int) "all honest have coin" 5 (List.length coins);
  List.iter (fun c -> Alcotest.(check bytes) "same" (List.hd coins) c) coins

let test_coin_unbiased_by_withholding () =
  (* The adversary cannot abort after seeing reveals: qualified corrupt
     dealers are reconstructed from honest shares. We check that a corrupt
     member staying silent in the reveal round does not change the coin
     relative to the all-reveal execution with the same honest randomness. *)
  let n = 7 in
  let corrupt = [ 6 ] in
  (* run once with corrupt silent (no adversary messages at all) *)
  let states, members = run_coin ~n ~corrupt ~adversary:None ~seed:4 in
  let coins =
    List.filter_map
      (fun p -> if List.mem p corrupt then None else Coin_toss.output states.(p))
      members
  in
  List.iter (fun c -> Alcotest.(check bytes) "consistent" (List.hd coins) c) coins

(* A revealer's tampered share must stay out of reconstruction even when
   the run's reveal memo already holds the honest payload it was forged
   from. The forgery flips one bit of a share value deep inside the
   payload, so it keeps the honest payload's length and first and last 8
   bytes. Member 0 reveals it: its shares sit at x = 1, among the first
   t + 1 that reconstruction interpolates, so an accepted forgery would
   change the victim's candidate coin. *)
let test_coin_tampered_reveal_rejected () =
  let m = 7 in
  let members = members_of m in
  let rng = Repro_util.Rng.create 11 in
  let shared = Coin_toss.shared () in
  let states =
    Array.init m (fun me ->
        Coin_toss.create ~shared ~members ~me
          ~rng:(Repro_util.Rng.of_label rng (string_of_int me)))
  in
  let victim = m - 1 in
  let module E = Repro_util.Encode in
  let forge payload =
    let entries =
      Option.get
        (E.decode payload (fun src ->
             E.r_list src (fun src ->
                 let dealer = E.r_varint src in
                 let pairs =
                   E.r_array src (fun src ->
                       let s = Repro_crypto.Shamir.decode src in
                       (s, E.r_bytes src))
                 in
                 (dealer, pairs))))
    in
    let forged =
      List.mapi
        (fun i (dealer, pairs) ->
          ( dealer,
            Array.mapi
              (fun e ((s : Repro_crypto.Shamir.share), nonce) ->
                if i = 0 && e = 1 then
                  let y = Repro_crypto.Field.to_int s.y lxor 1 in
                  ({ s with y = Repro_crypto.Field.of_int y }, nonce)
                else (s, nonce))
              pairs ))
        entries
    in
    E.to_bytes (fun b ->
        E.list b
          (fun b (dealer, pairs) ->
            E.varint b dealer;
            E.array b
              (fun b (s, nonce) ->
                Repro_crypto.Shamir.encode b s;
                E.bytes b nonce)
              pairs)
          forged)
  in
  for round = 0 to 3 do
    let sends = Array.map (fun st -> Engine.collect (Coin_toss.m_send st ~round)) states in
    if round < 3 then
      (* the victim goes last: every honest copy is memoized by then *)
      for p = 0 to m - 1 do
        let inbox =
          List.concat
            (List.init m (fun src ->
                 List.filter_map
                   (fun (dst, payload) ->
                     if dst <> p then None
                     else if round = 2 && src = 0 && p = victim then begin
                       let forged = forge payload in
                       let len = Bytes.length payload in
                       Alcotest.(check bool) "forgery differs" false (Bytes.equal forged payload);
                       Alcotest.(check int) "same length" len (Bytes.length forged);
                       Alcotest.(check bytes) "same head" (Bytes.sub payload 0 8)
                         (Bytes.sub forged 0 8);
                       Alcotest.(check bytes) "same tail" (Bytes.sub payload (len - 8) 8)
                         (Bytes.sub forged (len - 8) 8);
                       Some (src, forged)
                     end
                     else Some (src, payload))
                   sends.(src)))
        in
        Coin_toss.m_recv states.(p) ~round (Repro_net.Inbox.of_list inbox)
      done
    else
      (* round 3 opens the agreement on the candidates: compare them *)
      let candidate p = snd (List.hd sends.(p)) in
      for p = 1 to m - 1 do
        Alcotest.(check bytes) (Printf.sprintf "member %d candidate" p) (candidate 0)
          (candidate p)
      done
  done

(* The reveal memo is scoped to one run: two runs in one process count the
   same operations as each run alone. *)
let test_coin_counters_run_scoped () =
  let module C = Repro_obs.Counters in
  let was = C.is_enabled () in
  C.enable ();
  let counted f =
    C.reset ();
    f ();
    C.snapshot ()
  in
  let run seed () = ignore (run_coin ~n:7 ~corrupt:[] ~adversary:None ~seed) in
  let a = counted (run 21) in
  let b = counted (run 22) in
  let both = counted (fun () -> run 21 (); run 22 ()) in
  if not was then C.disable ();
  C.reset ();
  Alcotest.(check bool) "coin toss hashes" true (List.assoc "hashx.hash" a > 0);
  Alcotest.(check (list (pair string int)))
    "counters of two runs = sum of each alone"
    (List.map2 (fun (k, x) (_, y) -> (k, x + y)) a b)
    both

(* Turpin–Coan round 0 counts decoded values, one per member, first
   message first. A non-canonical encoding of "v0" (its length as a
   two-byte varint) counts as "v0"; a junk first message uses up its
   source. m = 4 and t = 1, so x is set only with 3 votes. *)
let test_multi_tally_decoded () =
  let module E = Repro_util.Encode in
  let enc v = E.to_bytes (fun b -> E.option b E.bytes v) in
  let v0 = Bytes.of_string "v0" and v1 = Bytes.of_string "v1" in
  let loose_v0 = Bytes.of_string "\001\130\000v0" in
  let junk = Bytes.of_string "\001\005" in
  let x_after inbox =
    let members = members_of 4 in
    let st = Multi_ba.create ~members ~me:0 ~input:v0 in
    ignore (Engine.collect (Multi_ba.m_send st ~round:0));
    Multi_ba.m_recv st ~round:0 (Repro_net.Inbox.of_list inbox);
    match Engine.collect (Multi_ba.m_send st ~round:1) with
    | (_, payload) :: _ -> payload
    | [] -> Alcotest.fail "no round-1 sends"
  in
  Alcotest.(check bytes) "loose encoding counts as its value" (enc (Some v0))
    (x_after [ (1, enc (Some v0)); (2, loose_v0); (3, enc (Some v1)) ]);
  Alcotest.(check bytes) "junk first message uses up its source" (enc None)
    (x_after [ (1, enc (Some v1)); (2, loose_v0); (3, junk); (3, enc (Some v0)) ])

(* --- inbox robustness of the committee BA machines --- *)

(* Two copies of every member run in lock step on one schedule. The clean
   copy gets exactly the messages its peers sent, some of them replaced by
   junk; the noisy copy gets the same inbox plus additions the tally rules
   say to ignore: later messages from an already-counted source (whatever
   their payload), messages from non-members and messages in the member's
   own name. Every send and the final outputs must coincide, so a junk
   first message still uses up its source. *)
let inbox_robust ~rng ~m ~rounds ~send ~recv ~output =
  let noise pool =
    match Repro_util.Rng.int rng 3 with
    | 0 -> Repro_util.Rng.bytes rng (Repro_util.Rng.int rng 20)
    | _ -> (
      match pool with
      | [] -> Bytes.empty
      | _ -> List.nth pool (Repro_util.Rng.int rng (List.length pool)))
  in
  let same = ref true in
  for round = 0 to rounds - 1 do
    let sends =
      Array.init 2 (fun copy -> Array.init m (fun p -> Engine.collect (send copy p ~round)))
    in
    if sends.(0) <> sends.(1) then same := false;
    for p = 0 to m - 1 do
      let inbox =
        List.concat
          (List.init m (fun src ->
               List.filter_map
                 (fun (dst, payload) ->
                   if dst <> p then None
                   else if Repro_util.Rng.int rng 6 = 0 then
                     Some (src, Repro_util.Rng.bytes rng (Repro_util.Rng.int rng 4))
                   else Some (src, payload))
                 sends.(0).(src)))
      in
      let pool = List.map snd inbox in
      let stray () =
        if Repro_util.Rng.bool rng then (p, noise pool)
        else (m + Repro_util.Rng.int rng 3, noise pool)
      in
      let noisy =
        List.concat_map
          (fun (src, payload) ->
            let dups =
              List.init (Repro_util.Rng.int rng 3) (fun _ -> (src, noise pool))
            in
            let strays = if Repro_util.Rng.int rng 3 = 0 then [ stray () ] else [] in
            strays @ ((src, payload) :: dups))
          inbox
        @ [ stray () ]
      in
      recv 0 p ~round (Repro_net.Inbox.of_list inbox);
      recv 1 p ~round (Repro_net.Inbox.of_list noisy)
    done
  done;
  !same && List.for_all (fun p -> output 0 p = output 1 p) (members_of m)

let arb_committee =
  QCheck.make
    ~print:(fun (m, seed) -> Printf.sprintf "m=%d seed=%d" m seed)
    QCheck.Gen.(pair (int_range 1 13) (int_range 0 1_000_000))

let prop_inbox_robust name ~input ~create ~rounds ~send ~recv ~output =
  QCheck.Test.make ~name:(name ^ ": ignored inbox additions change nothing") ~count:60
    arb_committee (fun (m, seed) ->
      let rng = Repro_util.Rng.create seed in
      let members = members_of m in
      let inputs = Array.init m (fun _ -> input rng) in
      let states =
        Array.init 2 (fun _ -> Array.init m (fun me -> create ~members ~me inputs.(me)))
      in
      inbox_robust ~rng ~m ~rounds:(rounds ~members)
        ~send:(fun c p ~round -> send states.(c).(p) ~round)
        ~recv:(fun c p ~round msgs -> recv states.(c).(p) ~round msgs)
        ~output:(fun c p -> output states.(c).(p)))

let value_of rng = Bytes.of_string (Printf.sprintf "v%d" (Repro_util.Rng.int rng 2))

let prop_pk_inbox_robust =
  prop_inbox_robust "phase-king" ~input:Repro_util.Rng.bool
    ~create:(fun ~members ~me input -> Phase_king.create ~members ~me ~input)
    ~rounds:Phase_king.rounds ~send:Phase_king.m_send ~recv:Phase_king.m_recv
    ~output:Phase_king.output

let prop_multi_inbox_robust =
  prop_inbox_robust "multi-ba" ~input:value_of
    ~create:(fun ~members ~me input -> Multi_ba.create ~members ~me ~input)
    ~rounds:Multi_ba.rounds ~send:Multi_ba.m_send ~recv:Multi_ba.m_recv
    ~output:Multi_ba.output

let prop_committee_inbox_robust =
  prop_inbox_robust "committee" ~input:value_of
    ~create:(fun ~members ~me candidate -> Committee.create ~members ~me ~candidate ())
    ~rounds:Committee.rounds ~send:Committee.m_send ~recv:Committee.m_recv
    ~output:Committee.output

(* --- Dolev-Strong --- *)

let make_ds_pki n =
  let vks_sks =
    Array.init n (fun i -> Repro_crypto.Mss.keygen ~height:4 (Bytes.of_string (Printf.sprintf "ds-%d" i)))
  in
  let vks = Array.map fst vks_sks in
  Array.init n (fun i -> { Dolev_strong.vks; sk = snd vks_sks.(i) })

let test_ds_honest_sender () =
  let n = 7 in
  let members = members_of n in
  let pkis = make_ds_pki n in
  let v = Bytes.of_string "broadcast-me" in
  let states =
    Array.init n (fun me ->
        Dolev_strong.create ~members ~me ~sender:0 ~pki:pkis.(me) ~input:v)
  in
  let _ =
    run_committee ~n ~corrupt:[] ~rounds:(Dolev_strong.rounds ~members) ~adversary:None
      ~make:(fun _ p -> Dolev_strong.machine states.(p))
  in
  Array.iter
    (fun st ->
      match Dolev_strong.output st with
      | Some out -> Alcotest.(check bytes) "delivered" v out
      | None -> Alcotest.fail "no output")
    states

let test_ds_silent_sender_default () =
  let n = 7 in
  let members = members_of n in
  let pkis = make_ds_pki n in
  let states =
    Array.init n (fun me ->
        Dolev_strong.create ~members ~me ~sender:0 ~pki:pkis.(me) ~input:Bytes.empty)
  in
  (* sender corrupt and silent *)
  let _ =
    run_committee ~n ~corrupt:[ 0 ] ~rounds:(Dolev_strong.rounds ~members) ~adversary:None
      ~make:(fun _ p -> Dolev_strong.machine states.(p))
  in
  List.iter
    (fun p ->
      if p <> 0 then
        match Dolev_strong.output ~default:(Bytes.of_string "DEF") states.(p) with
        | Some out -> Alcotest.(check bytes) "default" (Bytes.of_string "DEF") out
        | None -> Alcotest.fail "no output")
    members

let test_ds_forged_chain_rejected () =
  (* a corrupt non-sender injecting an unsigned value must not be accepted *)
  let n = 7 in
  let members = members_of n in
  let pkis = make_ds_pki n in
  let v = Bytes.of_string "real" in
  let states =
    Array.init n (fun me ->
        Dolev_strong.create ~members ~me ~sender:0 ~pki:pkis.(me) ~input:v)
  in
  let adversary =
    {
      Network.adv_name = "forger";
      adv_step =
        (fun net ~round:_ ~honest_staged:_ ->
          List.iter
            (fun p ->
              if p <> 3 then
                Network.send net ~src:3 ~dst:p ~tag:"test/i"
                  (Repro_util.Encode.to_bytes (fun b ->
                       Repro_util.Encode.bytes b (Bytes.of_string "forged");
                       Repro_util.Encode.list b (fun _ _ -> ()) [])))
            members);
    }
  in
  let _ =
    run_committee ~n ~corrupt:[ 3 ] ~rounds:(Dolev_strong.rounds ~members)
      ~adversary:(Some adversary)
      ~make:(fun _ p -> Dolev_strong.machine states.(p))
  in
  List.iter
    (fun p ->
      if p <> 3 then
        match Dolev_strong.output states.(p) with
        | Some out -> Alcotest.(check bytes) "real value survives" v out
        | None -> Alcotest.fail "no output")
    members

let suite =
  [
    Alcotest.test_case "pk honest agreement" `Quick test_pk_all_agree_honest;
    Alcotest.test_case "pk validity" `Quick test_pk_validity;
    Alcotest.test_case "pk equivocation" `Quick test_pk_agreement_under_equivocation;
    Alcotest.test_case "pk persistence" `Quick test_pk_persistence_with_silent_corrupt;
    Alcotest.test_case "multi unanimous" `Quick test_multi_unanimous;
    Alcotest.test_case "multi split" `Quick test_multi_split_inputs_agree;
    Alcotest.test_case "multi equivocator" `Quick test_multi_with_equivocator;
    Alcotest.test_case "committee unanimous" `Quick test_committee_agree_unanimous;
    Alcotest.test_case "committee divergent" `Quick test_committee_agree_divergent_candidates;
    Alcotest.test_case "committee validity" `Quick test_committee_agree_validity_filter;
    Alcotest.test_case "committee adopts received winner" `Quick
      test_committee_adopts_received_winner;
    Alcotest.test_case "committee unanimous hash count" `Quick
      test_committee_unanimous_hash_count;
    Alcotest.test_case "coin agreement" `Quick test_coin_agreement;
    Alcotest.test_case "coin fresh" `Quick test_coin_differs_across_runs;
    Alcotest.test_case "coin silent corrupt" `Quick test_coin_with_silent_corrupt;
    Alcotest.test_case "coin withholding" `Quick test_coin_unbiased_by_withholding;
    Alcotest.test_case "coin tampered reveal rejected" `Quick
      test_coin_tampered_reveal_rejected;
    Alcotest.test_case "coin counters run-scoped" `Quick test_coin_counters_run_scoped;
    Alcotest.test_case "multi tally decoded" `Quick test_multi_tally_decoded;
    QCheck_alcotest.to_alcotest prop_pk_inbox_robust;
    QCheck_alcotest.to_alcotest prop_multi_inbox_robust;
    QCheck_alcotest.to_alcotest prop_committee_inbox_robust;
    Alcotest.test_case "dolev-strong honest" `Quick test_ds_honest_sender;
    Alcotest.test_case "dolev-strong silent sender" `Quick test_ds_silent_sender_default;
    Alcotest.test_case "dolev-strong forgery" `Quick test_ds_forged_chain_rejected;
  ]
