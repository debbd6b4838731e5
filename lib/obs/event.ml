(* The observation stream: one typed event per fact the network's choke
   points see, emitted by the network (and by protocol layers through it)
   to the subscribers passed at [Network.create]. The auditor, the flight
   recorder and transcript taps are folds over it; what each one observes
   is therefore the same stream by construction, not several hand-wired
   calls kept in step.

   Events are built only when at least one subscriber listens, so an
   unobserved network pays nothing for them. Bits are charged in one
   place, the network's per-party metrics: deliveries are not events, and
   a round's charges reach subscribers summed per party in its
   [Round_end]. *)

(** One party's charge in a round: bits are 8 * wire size, sent plus
    received; peers are distinct, sent to or received from. *)
type charge = {
  party : int;
  round_bits : int;
  round_peers : int;
  total_bits : int;  (** cumulative, this round included *)
  total_peers : int;  (** cumulative distinct peers *)
}

type round_summary = {
  round : int;
  scheduled : int;  (** handlers the stepper invoked this round *)
  sent_bits : int;
      (** bits of every send staged this round, corrupt sources included:
          one charge per [Send] event *)
  charged : charge array;
      (** every party charged since the previous round close, ascending *)
}

type t =
  | Send of {
      round : int;  (** staging round *)
      vt : int option;
          (** virtual staging time; [None] while the network is on its
              lock-step shortcut (zero knobs, no condition), where the
              clock is the round number *)
      src : int;
      dst : int;
      tag : string;
      payload : bytes;
      bits : int;  (** 8 * wire size: what the metrics charge *)
    }  (** one accepted send, in send order *)
  | Round_end of round_summary
      (** the round closed, after its deliveries: what it charged *)
  | Phase_enter of { round : int; name : string }
  | Phase_exit  (** closes the innermost open phase *)
  | Committee of { round : int; level : int; idx : int; members : int list }
      (** tree-node committee membership, fixed at [round] *)
  | Decide of { round : int; party : int; value : string }
      (** a party's first accepted output *)
  | Corrupt of int
      (** the party is corrupt from now on: emitted at creation for the
          static set, and again on every mid-run upgrade *)

type sink = t -> unit
