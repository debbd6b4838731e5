(* Property-based adversarial testing of the consensus machines.

   A lightweight direct-drive simulator (no network layer): honest members
   run their state machines; corrupt members inject *arbitrary random
   bytes, possibly different per recipient, every round* — a generic
   Byzantine strategy driven by QCheck. Properties checked over hundreds
   of random configurations:

     - phase-king: agreement always; validity under unanimous inputs;
     - multivalued BA: agreement; output is an honest input or None;
     - committee agreement: the adopted payload is some honest candidate.

   This complements the network-level tests with much broader adversarial
   coverage per CPU second. *)

open Repro_consensus
module Rng = Repro_util.Rng

(* Drive machines directly: [send p ~round] and [recv p ~round msgs].
   Corrupt members' outgoing messages are random bytes of random shape,
   independently chosen per recipient (full equivocation power). *)
let drive ~rng ~m ~corrupt ~rounds ~send ~recv =
  let is_corrupt p = List.mem p corrupt in
  for round = 0 to rounds - 1 do
    (* mailbox.(dst) = (src, payload) list in src order *)
    let mailbox = Array.make m [] in
    for p = 0 to m - 1 do
      if not (is_corrupt p) then
        List.iter
          (fun (dst, payload) ->
            if dst >= 0 && dst < m then mailbox.(dst) <- (p, payload) :: mailbox.(dst))
          (Repro_net.Engine.collect (send p ~round))
    done;
    (* Byzantine injection: each corrupt member sends to every honest member
       with probability 3/4 a random payload (1-24 bytes), fully equivocating *)
    List.iter
      (fun c ->
        for dst = 0 to m - 1 do
          if (not (is_corrupt dst)) && Rng.int rng 4 < 3 then
            mailbox.(dst) <- (c, Rng.bytes rng (1 + Rng.int rng 24)) :: mailbox.(dst)
        done)
      corrupt;
    for p = 0 to m - 1 do
      if not (is_corrupt p) then recv p ~round (Repro_net.Inbox.of_list (List.rev mailbox.(p)))
    done
  done

let gen_config =
  (* committee size 4..13, corrupt < m/3, random seed *)
  QCheck.Gen.(
    int_range 4 13 >>= fun m ->
    int_range 0 ((m - 1) / 3) >>= fun t ->
    int_range 0 1_000_000 >>= fun seed ->
    return (m, t, seed))

let arb_config = QCheck.make ~print:(fun (m, t, s) -> Printf.sprintf "m=%d t=%d seed=%d" m t s) gen_config

let corrupt_of rng ~m ~t = Rng.subset rng ~n:m ~size:t

let prop_phase_king_agreement =
  QCheck.Test.make ~name:"phase-king: agreement + validity vs random Byzantine" ~count:120
    arb_config
    (fun (m, t, seed) ->
      let rng = Rng.create seed in
      let corrupt = corrupt_of rng ~m ~t in
      let unanimous = Rng.bool rng in
      let forced = Rng.bool rng in
      let members = List.init m (fun i -> i) in
      let input p = if unanimous then forced else Rng.bool rng = (p mod 2 = 0) in
      let states = Array.init m (fun me -> Phase_king.create ~members ~me ~input:(input me)) in
      drive ~rng ~m ~corrupt ~rounds:(Phase_king.rounds ~members)
        ~send:(fun p ~round -> Phase_king.m_send states.(p) ~round)
        ~recv:(fun p ~round msgs -> Phase_king.m_recv states.(p) ~round msgs);
      let honest = List.filter (fun p -> not (List.mem p corrupt)) members in
      let outs = List.map (fun p -> Phase_king.output states.(p)) honest in
      let decided = List.for_all (fun o -> o <> None) outs in
      let agreed =
        match outs with [] -> true | o :: rest -> List.for_all (fun x -> x = o) rest
      in
      let valid =
        (not unanimous) || List.for_all (fun o -> o = Some forced) outs
      in
      decided && agreed && valid)

let prop_multi_ba_agreement =
  QCheck.Test.make ~name:"multi-ba: agreement + honest-input output" ~count:80 arb_config
    (fun (m, t, seed) ->
      let rng = Rng.create seed in
      let corrupt = corrupt_of rng ~m ~t in
      let members = List.init m (fun i -> i) in
      let input p = Bytes.of_string (Printf.sprintf "v%d" (p mod (1 + Rng.int rng 3))) in
      let inputs = Array.init m input in
      let states =
        Array.init m (fun me -> Multi_ba.create ~members ~me ~input:inputs.(me))
      in
      drive ~rng ~m ~corrupt ~rounds:(Multi_ba.rounds ~members)
        ~send:(fun p ~round -> Multi_ba.m_send states.(p) ~round)
        ~recv:(fun p ~round msgs -> Multi_ba.m_recv states.(p) ~round msgs);
      let honest = List.filter (fun p -> not (List.mem p corrupt)) members in
      let outs = List.map (fun p -> Multi_ba.output states.(p)) honest in
      let agreed =
        match outs with [] -> true | o :: rest -> List.for_all (fun x -> x = o) rest
      in
      let output_ok =
        match outs with
        | Some (Some v) :: _ ->
          List.exists (fun p -> Bytes.equal inputs.(p) v) honest
        | _ -> true
      in
      agreed && output_ok)

let prop_committee_agree =
  QCheck.Test.make ~name:"committee: adopted payload is an honest candidate" ~count:80
    arb_config
    (fun (m, t, seed) ->
      let rng = Rng.create seed in
      let corrupt = corrupt_of rng ~m ~t in
      let members = List.init m (fun i -> i) in
      let candidates =
        Array.init m (fun p -> Rng.bytes (Rng.of_label rng (string_of_int (p mod 2))) 40)
      in
      let states =
        Array.init m (fun me -> Committee.create ~members ~me ~candidate:candidates.(me) ())
      in
      drive ~rng ~m ~corrupt ~rounds:(Committee.rounds ~members)
        ~send:(fun p ~round -> Committee.m_send states.(p) ~round)
        ~recv:(fun p ~round msgs -> Committee.m_recv states.(p) ~round msgs);
      let honest = List.filter (fun p -> not (List.mem p corrupt)) members in
      let outs = List.map (fun p -> Committee.output states.(p)) honest in
      let agreed =
        match outs with [] -> true | o :: rest -> List.for_all (fun x -> x = o) rest
      in
      let honest_payload =
        match outs with
        | Some (Some v) :: _ -> List.exists (fun p -> Bytes.equal candidates.(p) v) honest
        | _ -> true
      in
      agreed && honest_payload)

(* WOTS forgery resistance as a property: random bit flips in a signature
   never verify. *)
let prop_wots_bitflip =
  QCheck.Test.make ~name:"wots: any single corrupted chain fails verification" ~count:60
    QCheck.(pair small_nat (int_bound 1_000_000))
    (fun (chain, seed) ->
      let open Repro_crypto in
      let rng = Rng.create seed in
      let vk, sk = Wots.keygen (Rng.bytes rng 32) in
      let d = Hashx.hash ~tag:"pf" (Rng.bytes rng 8 :: []) in
      let sg = Wots.sign sk d in
      let i = chain mod Array.length sg in
      let sg' = Array.copy sg in
      sg'.(i) <- Rng.bytes rng Hashx.kappa_bytes;
      not (Wots.verify_uncached vk d sg'))

(* Merkle: a path never verifies for a different index. *)
let prop_merkle_index_binding =
  QCheck.Test.make ~name:"merkle: paths bind their index" ~count:60
    QCheck.(pair (int_range 2 24) (int_bound 1_000_000))
    (fun (k, seed) ->
      let open Repro_crypto in
      let rng = Rng.create seed in
      let leaves = Array.init k (fun i -> Bytes.of_string (Printf.sprintf "L%d-%d" i seed)) in
      let t = Merkle.build leaves in
      let i = Rng.int rng k in
      let j = (i + 1 + Rng.int rng (k - 1)) mod k in
      let path = Merkle.path t i in
      not (Merkle.verify_path ~root:(Merkle.root t) ~index:j ~leaf_data:leaves.(j) path)
      || i = j)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_phase_king_agreement;
    QCheck_alcotest.to_alcotest prop_multi_ba_agreement;
    QCheck_alcotest.to_alcotest prop_committee_agree;
    QCheck_alcotest.to_alcotest prop_wots_bitflip;
    QCheck_alcotest.to_alcotest prop_merkle_index_binding;
  ]
