(* Committee coin tossing — realizes f_ct (paper Sec. 3.1, after Chor et
   al. [24]): every member verifiably shares a random value; the coin is the
   sum of the qualified dealers' values, so it is uniform as long as one
   honest dealer's value enters, and no rushing adversary can bias it by
   selective aborts (a dealer that equivocates toward more than t members is
   disqualified *before* any share is revealed; one that stays qualified is
   reconstructable from honest shares alone).

   VSS here is Shamir sharing + per-share hash commitments (CRH binding)
   instead of error-correcting VSS — see DESIGN.md substitutions. A final
   {!Committee.agree} run fixes byte-exact agreement on the coin (corrupt
   dealers can cause boundary disagreements by equivocating commitment
   vectors; agreement then adopts one honest candidate).

   Round layout (m members, t = (m-1)/3 corrupt tolerated, k field elements):
     0      deal: private shares + broadcast commitment vectors
     1      complaints (bitmask per dealer)
     2      reveal shares of qualified dealers
     3...   Committee.agree on H(reconstructed sums)

   Simulation cost: every member would check the same bytes — each dealer's
   commitment vectors reach all members, and each reveal payload is one
   multicast buffer. A {!shared} value, one per coin-toss run, decodes each
   distinct encoding once and hashes each distinct reveal's pairs once;
   members compare those digests with their view of the commitments. The
   run also keeps the Lagrange coefficients per interpolation point set.
   The memo lives exactly as long as the run, so deterministic counters do
   not depend on what ran before. *)

module Field = Repro_crypto.Field
module Shamir = Repro_crypto.Shamir
module Hashx = Repro_crypto.Hashx
module Encode = Repro_util.Encode

let k_elements = 5 (* 5 * 31 bits > kappa = 128 bits of entropy *)

type deal = {
  d_shares : (Shamir.share * bytes) array; (* my k (share, nonce) pairs *)
  d_commits : bytes array array; (* commits.(j).(e): member j, element e *)
}

(* One dealer's pairs as a revealer published them, with the commitment
   digest of each pair. *)
type revealed = {
  pairs : (Shamir.share * bytes) array;
  digests : bytes array; (* digests.(e) = commit_share pairs.(e) *)
}

let share_bytes (s : Shamir.share) = Encode.to_bytes (fun b -> Shamir.encode b s)

let commit_share (s, nonce) = Hashx.hash ~tag:"coin-share" [ share_bytes s; nonce ]

let enc_pair b (s, nonce) =
  Shamir.encode b s;
  Encode.bytes b nonce

let dec_pair src =
  let s = Shamir.decode src in
  let nonce = Encode.r_bytes src in
  (s, nonce)

(* A deal is the recipient's pairs followed by the dealer's commitment
   vectors, which are the same for every recipient: the dealer encodes them
   once, and the run decodes each distinct encoding once. *)
let enc_commits commits =
  Encode.to_bytes (fun b -> Encode.array b (fun b row -> Encode.array b Encode.bytes row) commits)

let dec_commits src = Encode.r_array src (fun src -> Encode.r_array src Encode.r_bytes)

let enc_deal b ~mine ~commits =
  Encode.array b enc_pair mine;
  Encode.bytes_raw b commits

let dec_deal src =
  let mine = Encode.r_array src dec_pair in
  (mine, Encode.r_bytes_raw src (Encode.remaining src))

let dec_reveal src =
  Encode.r_list src (fun src ->
      let dealer = Encode.r_varint src in
      let pairs = Encode.r_array src dec_pair in
      (dealer, { pairs; digests = Array.map commit_share pairs }))

(* One per run (see the header). Members normally all interpolate at the
   first t + 1 revealer positions, so [weights] computes that point set's
   Lagrange coefficients once. *)
type shared = {
  commits : bytes -> bytes array array option;
  reveals : bytes -> (int * revealed) list option;
  weights : (int list, Field.t list) Hashtbl.t; (* keyed by the xs *)
}

let shared () =
  {
    commits = Encode.memo_decode dec_commits;
    reveals = Encode.memo_decode dec_reveal;
    weights = Hashtbl.create 4;
  }

let interpolate sh (shares : Shamir.share list) =
  let xs = List.map (fun (s : Shamir.share) -> s.x) shares in
  let key = (xs :> int list) in
  let ws =
    match Hashtbl.find_opt sh.weights key with
    | Some ws -> ws
    | None ->
      let ws = Shamir.lagrange_at_zero xs in
      Hashtbl.add sh.weights key ws;
      ws
  in
  List.fold_left2
    (fun acc (s : Shamir.share) w -> Field.add acc (Field.mul s.y w))
    Field.zero shares ws

type t = {
  shared : shared;
  members : Members.t;
  peers : int array; (* members minus [me], shared with the agreement *)
  me : int;
  my_pos : int;
  m : int;
  t_corrupt : int;
  rng : Repro_util.Rng.t;
  mutable my_deal_private : (Shamir.share * bytes) array array;
      (* per member-position: k (share, nonce) *)
  mutable my_deal_commits : bytes array array;
  (* The rest is indexed by dealer position. *)
  deals : deal option array; (* the dealer's deal as seen by me *)
  complaints : int array; (* #complaining members *)
  reveals : revealed list array array; (* .(dealer).(revealer position) *)
  mutable agree : Committee.t option;
  mutable candidate : bytes option;
}

let agree_rounds ~members = Committee.rounds ~members

let rounds ~members = 3 + agree_rounds ~members

let create ~shared ~members ~me ~rng =
  let members = Members.of_list members in
  let m = Array.length members in
  let my_pos = Members.pos members me in
  if my_pos < 0 then invalid_arg "Coin_toss.create: not a member";
  {
    shared;
    members;
    peers = Members.peers members ~me;
    me;
    my_pos;
    m;
    t_corrupt = Phase_king.max_corrupt m;
    rng;
    my_deal_private = [||];
    my_deal_commits = [||];
    deals = Array.make m None;
    complaints = Array.make m 0;
    reveals = Array.init m (fun _ -> Array.make m []);
    agree = None;
    candidate = None;
  }

let deal_ok t (mine : (Shamir.share * bytes) array) commits =
  Array.length mine = k_elements
  && Array.length commits = t.m
  && Array.for_all (fun row -> Array.length row = k_elements) commits
  && Array.for_all2
       (fun pair c -> Bytes.equal (commit_share pair) c)
       mine
       commits.(t.my_pos)
  && Array.for_all (fun (s, _) -> Field.to_int s.Shamir.x = t.my_pos + 1) mine

(* --- sending --- *)

let m_send t ~round (out : Repro_net.Engine.out) =
  if round = 0 then begin
    (* Deal: k independent Shamir sharings of fresh random elements. *)
    let sharings =
      Array.init k_elements (fun _ ->
          let secret = Field.random t.rng in
          Array.of_list
            (Shamir.share t.rng ~secret ~threshold:t.t_corrupt ~num_shares:t.m))
    in
    let per_member =
      Array.init t.m (fun j ->
          Array.init k_elements (fun e ->
              (sharings.(e).(j), Repro_util.Rng.bytes t.rng Hashx.kappa_bytes)))
    in
    let commits = Array.map (fun pairs -> Array.map commit_share pairs) per_member in
    t.my_deal_private <- per_member;
    t.my_deal_commits <- commits;
    let commits = enc_commits commits in
    Array.iteri
      (fun j q ->
        if q <> t.me then
          out.send q (Encode.to_bytes (fun b -> enc_deal b ~mine:per_member.(j) ~commits)))
      t.members
  end
  else if round = 1 then begin
    (* Complaints: bit per dealer position. *)
    let bits = Repro_util.Bitset.create t.m in
    Array.iteri
      (fun j dealer ->
        if dealer <> t.me && t.deals.(j) = None then Repro_util.Bitset.set bits j)
      t.members;
    out.send_many t.peers (Encode.to_bytes (fun b -> Repro_util.Bitset.encode b bits))
  end
  else if round = 2 then begin
    (* Reveal shares of locally qualified dealers (my own deal is in
       [deals] since round 0). *)
    let entries = ref [] in
    for j = t.m - 1 downto 0 do
      match t.deals.(j) with
      | Some d when t.complaints.(j) <= t.t_corrupt ->
        entries := (t.members.(j), d.d_shares) :: !entries
      | _ -> ()
    done;
    out.send_many t.peers
      (Encode.to_bytes (fun b ->
           Encode.list b
             (fun b (dealer, pairs) ->
               Encode.varint b dealer;
               Encode.array b enc_pair pairs)
             !entries))
  end
  else
    match t.agree with
    | Some a -> Committee.m_send a ~round:(round - 3) out
    | None -> ()

(* --- receiving --- *)

let m_recv t ~round inbox =
  if round = 0 then begin
    Members.iter t.members inbox t (fun t j payload ->
        match Encode.decode payload dec_deal with
        | Some (mine, rest) -> (
          match t.shared.commits rest with
          | Some commits when deal_ok t mine commits ->
            t.deals.(j) <- Some { d_shares = mine; d_commits = commits }
          | _ -> ())
        | None -> ());
    (* My own deal to myself. *)
    t.deals.(t.my_pos) <-
      Some { d_shares = t.my_deal_private.(t.my_pos); d_commits = t.my_deal_commits }
  end
  else if round = 1 then begin
    (* Count complaints (my own included). *)
    Array.iteri
      (fun j dealer ->
        if dealer <> t.me && t.deals.(j) = None then
          t.complaints.(j) <- t.complaints.(j) + 1)
      t.members;
    Members.iter t.members inbox t (fun t _ payload ->
        match Encode.decode payload Repro_util.Bitset.decode with
        | Some bits when Repro_util.Bitset.length bits = t.m ->
          for j = 0 to t.m - 1 do
            if Repro_util.Bitset.mem bits j then t.complaints.(j) <- t.complaints.(j) + 1
          done
        | _ -> ())
  end
  else if round = 2 then begin
    (* Gather reveals. My own shares were checked against their
       commitments when the deals arrived, so their digests are the
       commitments themselves. *)
    let add_reveal pos (dealer, (r : revealed)) =
      let j = Members.pos t.members dealer in
      if j >= 0 && Array.length r.pairs = k_elements then
        t.reveals.(j).(pos) <- r :: t.reveals.(j).(pos)
    in
    Array.iteri
      (fun j deal ->
        match deal with
        | Some d ->
          add_reveal t.my_pos
            (t.members.(j), { pairs = d.d_shares; digests = d.d_commits.(t.my_pos) })
        | None -> ())
      t.deals;
    Members.iter t.members inbox t (fun t pos payload ->
        match t.shared.reveals payload with
        | Some entries -> List.iter (add_reveal pos) entries
        | None -> ());
    (* Reconstruct qualified dealers' secrets and form the candidate coin.
       Per element, interpolate the first t + 1 commitment-verified shares
       in x order. A share from revealer [pos] verifies only at x = pos + 1
       and is bound by its digest, so walking revealers in position order
       visits the verified shares sorted, one per revealer, at distinct
       points: this is [Shamir.reconstruct] with the coefficients shared. *)
    let sums = Array.make k_elements Field.zero in
    let reconstruct (d : deal) revealers e =
      let rec go pos acc count =
        if count > t.t_corrupt then Some (interpolate t.shared (List.rev acc))
        else if pos >= t.m then None
        else
          match
            List.find_opt
              (fun r ->
                let s, _ = r.pairs.(e) in
                Field.to_int s.Shamir.x = pos + 1
                && Bytes.equal r.digests.(e) d.d_commits.(pos).(e))
              revealers.(pos)
          with
          | Some r -> go (pos + 1) (fst r.pairs.(e) :: acc) (count + 1)
          | None -> go (pos + 1) acc count
      in
      go 0 [] 0
    in
    Array.iteri
      (fun j deal ->
        match deal with
        | Some d when t.complaints.(j) <= t.t_corrupt ->
          let element_values = Array.init k_elements (reconstruct d t.reveals.(j)) in
          if Array.for_all Option.is_some element_values then
            Array.iteri (fun e v -> sums.(e) <- Field.add sums.(e) (Option.get v)) element_values
        | _ -> ())
      t.deals;
    let candidate =
      Hashx.hash ~tag:"coin-candidate"
        (Array.to_list
           (Array.map (fun v -> Bytes.of_string (string_of_int (Field.to_int v))) sums))
    in
    t.candidate <- Some candidate;
    t.agree <-
      Some
        (Committee.of_members ~members:t.members ~me:t.me ~candidate ())
  end
  else
    match t.agree with
    | Some a -> Committee.m_recv a ~round:(round - 3) inbox
    | None -> ()

let machine t =
  { Repro_net.Engine.m_send = (fun ~round out -> m_send t ~round out);
    m_recv = (fun ~round inbox -> m_recv t ~round inbox) }

(* Final coin: the agreed candidate. *)
let output t =
  match t.agree with
  | Some a -> (
    match Committee.output a with
    | Some (Some coin) -> Some coin
    | Some None -> t.candidate (* degenerate fallback; tested not to occur for good committees *)
    | None -> None)
  | None -> None
