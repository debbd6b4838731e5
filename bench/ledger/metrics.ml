(* Every metric the ledger reports, with its unit and direction. BENCHMARK.json
   declares the same names; the ledger's test checks the two agree. *)

type spec = {
  name : string;
  unit_ : string;
  lower_better : bool;
  exact : bool;  (** a deterministic function of the workload and seed *)
  floor : float;  (** the smallest change [ledger compare] judges, in [unit_] *)
}

let m ?(exact = false) ?(lower_better = true) ?(floor = 0.) name unit_ =
  { name; unit_; lower_better; exact; floor }

(* Measured by every timed run: what a user of the simulator sees. *)
let end_to_end =
  [
    m "wall_s" "s";
    (* A workload's set-up can take 40 ms, where one process's start-up
       noise exceeds any share-of-median bound. *)
    m ~floor:0.02 "setup_s" "s";
    m "peak_rss_mib" "MiB";
    m ~exact:true "rounds" "rounds";
    m ~exact:true "vt" "ticks";
  ]

(* Recorded in the ledger file but not declared end-to-end: the raw times
   and the calibration kernel behind the normalized ones (context for
   [ledger compare], which judges only bounded or exact metrics), per-party
   bytes (the async cell and the matrix do not expose them), and the
   failure share (0 on every healthy run). *)
let ledger_only =
  [
    m "wall_raw_s" "s";
    m "setup_raw_s" "s";
    m "calib_ms" "ms";
    m ~exact:true "max_party_kib" "KiB";
    m ~exact:true "fail_ratio" "failed/attempted";
  ]

(* The layers wall time is split into, keyed by the spans the program
   already emits. *)
let layers = [ "net"; "machines"; "srds"; "aetree"; "ba" ]

let per_layer =
  List.concat_map
    (fun l -> [ m (l ^ ".self_ms") "ms"; m (l ^ ".share") "share"; m (l ^ ".alloc_mwords") "Mwords" ])
    layers
  @ [
      m "unattributed.share" "share";
      m "gc.minor_collections" "count";
      m "gc.major_collections" "count";
      m "gc.alloc_mwords" "Mwords";
      m "net.msgs" "count";
      m "net.msg_bytes" "bytes";
      m "net.active_set_mean" "parties";
      m ~lower_better:false "encode.memo_hit_ratio" "ratio";
      m "encode.memo_miss" "count";
      m ~lower_better:false "aecomm.enc_hit_ratio" "ratio";
      m "crypto.sha256_compress" "count";
      m "crypto.hashx_hash" "count";
      m ~lower_better:false "crypto.hashx_hit_ratio" "ratio";
      m "crypto.wots_sign" "count";
      m "crypto.wots_verify" "count";
      m ~lower_better:false "crypto.wots_hit_ratio" "ratio";
      m "snark.pcd_prove" "count";
      m "snark.pcd_verify" "count";
      m "snark.prove" "count";
      m "snark.verify" "count";
      m "srds.keygen" "count";
      m "srds.sign" "count";
      m "srds.aggregate" "count";
      m "srds.verify" "count";
      m "adversary.msgs" "count";
      m "sched.pre_gst_lost" "count";
      m "sched.vt_per_round" "ticks/round";
      m ~lower_better:false "pool.busy_ratio" "ratio";
      m "pool.tasks" "count";
      m "crypto.sha256_4k_us" "us";
      m "crypto.sha256_64b_ns" "ns";
      m "crypto.wots_sign_us" "us";
      m "crypto.wots_verify_us" "us";
      m "srds.owf_keygen_us" "us";
      m "srds.snark_keygen_us" "us";
      m "srds.owf_agg_verify_ms" "ms";
      m "srds.snark_agg_verify_ms" "ms";
      m "encode.wire_roundtrip_ns" "ns";
      m "net.ns_per_msg" "ns";
      m "sched.ns_per_msg" "ns";
      m "sched.heap_push_pop_ns" "ns";
      m "crypto.sha256_busy_share" "share";
      m "crypto.wots_busy_share" "share";
      m "net.substrate_busy_share" "share";
      m "obs.trace_overhead_pct" "%";
      m "obs.audit_overhead_pct" "%";
      m "obs.recorder_overhead_pct" "%";
      m "obs.recorder_rss_mib" "MiB";
    ]

let find name = List.find_opt (fun s -> s.name = name) (end_to_end @ ledger_only @ per_layer)
