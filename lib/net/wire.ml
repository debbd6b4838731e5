(* A point-to-point message in the synchronous network.

   The [tag] names the (protocol, step) the payload belongs to; receivers
   pattern-match on it. Its length is charged to the sender along with the
   payload, so tags are part of the honest communication cost. *)

type msg = { src : int; dst : int; tag : string; payload : bytes }

(* The accounting charge of one message with this tag and payload. It
   takes the fields rather than a [msg] because the network keeps no
   record for a message in flight. *)
let size ~tag payload = String.length tag + Bytes.length payload + 4
(* + 4: src/dst/len framing, a fixed modest header charge *)

(* Canonical framed byte form: varint src, varint dst, length-prefixed tag,
   length-prefixed payload. [size] above stays the honest accounting charge
   (flat 4-byte header); this form is for transcripts, replay and any
   cross-process transport, so [decode] must survive arbitrary bytes —
   truncated input, implausible lengths, trailing garbage all yield [None],
   never an exception. *)

module E = Repro_util.Encode

let encode m =
  E.to_bytes (fun b ->
      E.varint b m.src;
      E.varint b m.dst;
      E.string b m.tag;
      E.bytes b m.payload)

let decode data =
  E.decode data (fun src ->
      let s = E.r_varint src in
      let d = E.r_varint src in
      let tag = E.r_string src in
      let payload = E.r_bytes src in
      { src = s; dst = d; tag; payload })
