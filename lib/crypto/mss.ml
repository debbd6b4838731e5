(* Merkle signature scheme (XMSS-like): a stateful many-time signature built
   from WOTS one-time keys under a Merkle tree.

   This is the "digital signature from OWF/CRH" substrate used wherever a
   party must sign more than one message (Dolev-Strong broadcast, tree
   election transcripts). A key supports 2^height signatures; signing
   consumes the next unused WOTS leaf. *)

type secret_key = {
  seed : bytes;
  height : int;
  tree : Merkle.tree;
  wots_sks : Wots.secret_key array;
  wots_vks : Wots.verification_key array;
  mutable next_leaf : int;
}

type verification_key = bytes

type signature = {
  leaf_index : int;
  wots_vk : Wots.verification_key;
  wots_sig : Wots.signature;
  auth_path : bytes list;
}

let default_height = 7 (* 128 signatures per key *)

let keygen ?(height = default_height) seed =
  let n = 1 lsl height in
  let pairs =
    Array.init n (fun i ->
        let leaf_seed =
          Prf.eval_parts ~key:seed
            [ Bytes.of_string "mss-leaf"; Bytes.of_string (string_of_int i) ]
        in
        Wots.keygen leaf_seed)
  in
  let wots_vks = Array.map fst pairs in
  let wots_sks = Array.map snd pairs in
  let tree = Merkle.build wots_vks in
  let sk = { seed; height; tree; wots_sks; wots_vks; next_leaf = 0 } in
  (Merkle.root tree, sk)

let signatures_remaining sk = (1 lsl sk.height) - sk.next_leaf

let unused_copy sk = { sk with next_leaf = 0 }

let sign sk msg_digest =
  if sk.next_leaf >= 1 lsl sk.height then failwith "Mss.sign: key exhausted";
  let i = sk.next_leaf in
  sk.next_leaf <- i + 1;
  {
    leaf_index = i;
    wots_vk = sk.wots_vks.(i);
    wots_sig = Wots.sign sk.wots_sks.(i) msg_digest;
    auth_path = Merkle.path sk.tree i;
  }

let verify vk msg_digest sg =
  sg.leaf_index >= 0
  && Wots.verify sg.wots_vk msg_digest sg.wots_sig
  && Merkle.verify_path ~root:vk ~index:sg.leaf_index ~leaf_data:sg.wots_vk
       sg.auth_path

let encode_signature b sg =
  let open Repro_util.Encode in
  varint b sg.leaf_index;
  bytes b sg.wots_vk;
  Wots.encode_signature b sg.wots_sig;
  Merkle.encode_path b sg.auth_path

let decode_signature src =
  let open Repro_util.Encode in
  let leaf_index = r_varint src in
  let wots_vk = r_bytes src in
  let wots_sig = Wots.decode_signature src in
  let auth_path = Merkle.decode_path src in
  { leaf_index; wots_vk; wots_sig; auth_path }

let signature_to_bytes sg =
  Repro_util.Encode.to_bytes (fun b -> encode_signature b sg)

let signature_of_bytes data =
  Repro_util.Encode.decode data decode_signature
