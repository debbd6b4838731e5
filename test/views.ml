(* The messages of a {!Repro_net.Inbox} view as [Wire.msg] records, in
   view order, for tests and reference models that compare lists. On an
   inbox view each record's [dst] is the party itself. *)

module Inbox = Repro_net.Inbox
module Network = Repro_net.Network
module Wire = Repro_net.Wire

let to_list v =
  List.init (Inbox.length v) (fun i ->
      { Wire.src = Inbox.src v i; dst = Inbox.dst v i; tag = Inbox.tag v i; payload = Inbox.payload v i })

(* Party [p]'s current inbox. *)
let inbox net p = to_list (Network.delivered net p)

(* [Network.run_slices] for handlers written against inbox lists: each
   running party's inbox is listed just before its handler runs. *)
let run_lists net ?adversary ~rounds ~extra handler_of =
  Network.run_slices net ?adversary ~rounds ~extra (fun p ->
      Option.map (fun h ~round v -> h ~round ~inbox:(to_list v)) (handler_of p))

(* A view of sends holding [msgs], in list order: what a condition or an
   adversary would be handed. *)
let of_sends (msgs : Wire.msg list) =
  let a = Array.of_list msgs in
  let v = Inbox.create () in
  Inbox.set_sends v
    ~srcs:(Array.map (fun (m : Wire.msg) -> m.src) a)
    ~dsts:(Array.map (fun (m : Wire.msg) -> m.dst) a)
    ~bodies:(Array.init (Array.length a) Fun.id)
    ~tags:(Array.map (fun (m : Wire.msg) -> m.tag) a)
    ~pays:(Array.map (fun (m : Wire.msg) -> m.payload) a)
    ~len:(Array.length a);
  v
