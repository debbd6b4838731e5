(* Transcript replay: parse a flight-recorder JSONL log and re-drive every
   recorded send through a fresh network, then byte-compare the re-captured
   stream against the original. The recorded log is the ground truth; the
   network's own validation (index ranges) plus the recorder's digesting
   re-derive everything else, so any drift — ordering, charging, payload
   handling — surfaces as a check failure rather than a silent mismatch. *)

module Recorder = Repro_obs.Recorder
module Json = Repro_util.Json

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "hex"

let string_of_hex s =
  let l = String.length s in
  if l mod 2 <> 0 then invalid_arg "hex";
  String.init (l / 2) (fun i ->
      Char.chr ((hex_val s.[2 * i] * 16) + hex_val s.[(2 * i) + 1]))

(* Accessor helpers over one parsed line; [ctx] names the line on error. *)
let get_int ctx j key =
  match Option.bind (Json.member key j) Json.to_int with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: missing int %S" ctx key)

let get_str ctx j key =
  match Option.bind (Json.member key j) Json.to_string with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: missing string %S" ctx key)

let event_of_line ctx line =
  match Json.parse line with
  | Error e -> failwith (Printf.sprintf "%s: %s" ctx e)
  | Ok j -> (
    match Option.bind (Json.member "e" j) Json.to_string with
    | None -> failwith (Printf.sprintf "%s: missing event kind \"e\"" ctx)
    | Some "send" ->
      let digest =
        let h = get_str ctx j "digest" in
        try Int64.of_string ("0x" ^ h)
        with _ -> failwith (Printf.sprintf "%s: bad digest %S" ctx h)
      in
      let payload =
        match Option.bind (Json.member "payload" j) Json.to_string with
        | None -> None
        | Some h -> (
          try Some (string_of_hex h)
          with _ -> failwith (Printf.sprintf "%s: bad payload hex" ctx))
      in
      Recorder.Send
        {
          s_round = get_int ctx j "round";
          s_src = get_int ctx j "src";
          s_dst = get_int ctx j "dst";
          s_tag = get_str ctx j "tag";
          s_digest = digest;
          s_bits = get_int ctx j "bits";
          s_vt = Option.bind (Json.member "vt" j) Json.to_int;
          s_payload = payload;
        }
    | Some "phase" ->
      Recorder.Phase
        { p_round = get_int ctx j "round"; p_name = get_str ctx j "name" }
    | Some "committee" ->
      let members =
        match Option.bind (Json.member "members" j) Json.to_list with
        | None -> failwith (Printf.sprintf "%s: missing members" ctx)
        | Some l ->
          List.map
            (fun m ->
              match Json.to_int m with
              | Some v -> v
              | None -> failwith (Printf.sprintf "%s: bad member" ctx))
            l
      in
      Recorder.Committee
        {
          c_round = get_int ctx j "round";
          c_level = get_int ctx j "level";
          c_idx = get_int ctx j "idx";
          c_members = members;
        }
    | Some "decide" ->
      Recorder.Decide
        {
          d_round = get_int ctx j "round";
          d_party = get_int ctx j "party";
          d_value = get_str ctx j "value";
        }
    | Some k -> failwith (Printf.sprintf "%s: unknown event kind %S" ctx k))

let events_of_jsonl doc =
  let lines = String.split_on_char '\n' doc in
  try
    Ok
      (List.concat
         (List.mapi
            (fun i line ->
              if String.trim line = "" then []
              else [ event_of_line (Printf.sprintf "line %d" (i + 1)) line ])
            lines))
  with Failure e -> Error e

let replay ?backend ~n ~corrupt events =
  let sends =
    List.filter_map
      (function Recorder.Send s -> Some s | _ -> None)
      events
  in
  (* The fresh network must run the configuration the log was recorded
     under: virtual timestamps are a function of the seeded per-edge
     latency schedule, which only reproduces under the same config. *)
  let re = Recorder.create ~keep_payloads:true () in
  let net = Network.create ?backend ~sinks:[ Recorder.observe re ] ~n ~corrupt () in
  try
    List.iter
      (fun (s : Recorder.send_ev) ->
        if s.s_round < Network.round net then
          failwith
            (Printf.sprintf "send at round %d after round advanced to %d"
               s.s_round (Network.round net));
        (* Advance empty rounds until the network sits at the recorded
           staging round; nobody acts, so nothing extra is staged. *)
        while Network.round net < s.s_round do
          Network.run_active net ~rounds:1 ~extra:(fun ~round:_ -> []) (fun _ ->
              None)
        done;
        match s.s_payload with
        | None ->
          failwith
            (Printf.sprintf
               "send r%d %d->%d %S: payload not captured (record with \
                keep_payloads)"
               s.s_round s.s_src s.s_dst s.s_tag)
        | Some p ->
          Network.send net ~src:s.s_src ~dst:s.s_dst ~tag:s.s_tag
            (Bytes.of_string p))
      sends;
    Ok re
  with Failure e -> Error e

let check ~original ~replayed =
  let orig =
    List.filter_map
      (function Recorder.Send s -> Some s | _ -> None)
      original
  in
  let re =
    List.filter_map
      (function Recorder.Send s -> Some s | _ -> None)
      (Recorder.events replayed)
  in
  let lo = List.length orig and lr = List.length re in
  if lo <> lr then
    Error (Printf.sprintf "send count mismatch: recorded %d, replayed %d" lo lr)
  else
    let rec go i (os : Recorder.send_ev list) (rs : Recorder.send_ev list) =
      match (os, rs) with
      | [], [] -> Ok lo
      | o :: os', r :: rs' ->
        if
          o.s_round = r.s_round && o.s_src = r.s_src && o.s_dst = r.s_dst
          && o.s_tag = r.s_tag
          && Int64.equal o.s_digest r.s_digest
          && o.s_bits = r.s_bits
          && (o.s_vt = None || o.s_vt = r.s_vt)
          && (o.s_payload = None || o.s_payload = r.s_payload)
        then go (i + 1) os' rs'
        else
          Error
            (Printf.sprintf
               "send #%d diverges: recorded r%d %d->%d %S %s/%db, replayed \
                r%d %d->%d %S %s/%db"
               i o.s_round o.s_src o.s_dst o.s_tag
               (Recorder.hex_of_digest o.s_digest)
               o.s_bits r.s_round r.s_src r.s_dst r.s_tag
               (Recorder.hex_of_digest r.s_digest)
               r.s_bits)
      | _ -> Error "send count mismatch"
    in
    go 0 orig re

let self_check ?backend ~n ~corrupt events =
  match replay ?backend ~n ~corrupt events with
  | Error e -> Error ("replay: " ^ e)
  | Ok re -> check ~original:events ~replayed:re
