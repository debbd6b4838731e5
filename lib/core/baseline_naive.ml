(* Baseline: trivial flooding boost — every holder of the almost-everywhere
   value sends it to all n parties; receivers output the majority.
   Theta(n) messages per party in one round: the upper anchor the
   scalable protocols are measured against (cf. the Õ(n) rows of
   Table 1). *)

module Network = Repro_net.Network
module Inbox = Repro_net.Inbox

type config = {
  holders : int list;
  value : bool;
}

let run ~net (cfg : config) =
  let n = Network.n net in
  let honest p = Network.is_honest net p in
  let enc b = Bytes.make 1 (if b then '\001' else '\000') in
  let outputs = Array.make n None in
  let handler p ~round inbox =
    if round = 0 then begin
      if List.mem p cfg.holders then
        Network.send_many net ~src:p
          ~dsts:(Array.of_list (List.filter (fun q -> q <> p) (List.init n (fun q -> q))))
          ~tag:"flood" (enc cfg.value)
    end
    else begin
      let t = ref 0 and f = ref 0 in
      let count b = if b then incr t else incr f in
      if List.mem p cfg.holders then count cfg.value;
      for i = 0 to Inbox.length inbox - 1 do
        let payload = Inbox.payload inbox i in
        if Inbox.tag inbox i = "flood" && Bytes.length payload = 1 then
          count (Bytes.get payload 0 = '\001')
      done;
      if !t + !f > 0 then begin
        outputs.(p) <- Some (!t > !f);
        Outcome.decide_bit net ~round p (!t > !f)
      end
    end
  in
  Network.phase net "flood" (fun () ->
      let everyone = Network.everyone net in
      Network.run_slices net ~rounds:2
        ~extra:(fun ~round:_ -> everyone)
        (Array.get
           (Array.init n (fun p -> if honest p then Some (handler p) else None))));
  outputs
