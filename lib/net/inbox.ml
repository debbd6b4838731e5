(* A read-only window over a round's message arrays (see network.ml):
   message [i] is slot [off + i] of [srcs]/[bodies], and its tag and
   payload are the body's entries in [tags]/[pays]. An inbox's recipient
   is its party ([self]); a view of sends keeps one per message in
   [dsts]. Reading a message allocates nothing; the network and the
   engine repoint one record per party or instance instead of building a
   list. *)

type t = {
  mutable srcs : int array;
  mutable dsts : int array; (* read only when [self < 0] *)
  mutable self : int;
  mutable bodies : int array;
  mutable tags : string array;
  mutable pays : bytes array;
  mutable off : int;
  mutable len : int;
}

let create () =
  { srcs = [||]; dsts = [||]; self = -1; bodies = [||]; tags = [||]; pays = [||]; off = 0; len = 0 }

let set v ~self ~srcs ~bodies ~tags ~pays ~off ~len =
  v.srcs <- srcs;
  v.self <- self;
  v.bodies <- bodies;
  v.tags <- tags;
  v.pays <- pays;
  v.off <- off;
  v.len <- len

let set_sends v ~srcs ~dsts ~bodies ~tags ~pays ~len =
  set v ~self:(-1) ~srcs ~bodies ~tags ~pays ~off:0 ~len;
  v.dsts <- dsts

let set_within v ~from ~srcs ~bodies ~off ~len =
  set v ~self:from.self ~srcs ~bodies ~tags:from.tags ~pays:from.pays ~off ~len

let length v = v.len

let slot v i =
  if i < 0 || i >= v.len then invalid_arg "Inbox: message index out of range";
  v.off + i

let src v i = Array.unsafe_get v.srcs (slot v i)
let dst v i =
  let k = slot v i in
  if v.self >= 0 then v.self else v.dsts.(k)
let body v i = Array.unsafe_get v.bodies (slot v i)
let payload v i = Array.unsafe_get v.pays (body v i)
let tag v i = Array.unsafe_get v.tags (body v i)

let of_list ?(tag = "") msgs =
  let len = List.length msgs in
  {
    srcs = Array.of_list (List.map fst msgs);
    dsts = [||];
    self = -1;
    bodies = Array.init len Fun.id;
    tags = Array.make len tag;
    pays = Array.of_list (List.map snd msgs);
    off = 0;
    len;
  }
