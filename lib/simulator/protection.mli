(** The complete protection system of Fig. 1: N software channels behind an
    adjudicator (the paper studies the 1-out-of-2 OR case; voted
    M-out-of-N architectures are supported as an extension). *)

type t

val create : ?adjudicator:Adjudicator.t -> Channel.t list -> t
(** Raises [Invalid_argument] on an empty channel list or when the
    adjudicator requires more votes than there are channels. The default
    adjudicator is the paper's OR. *)

val one_out_of_two : Channel.t -> Channel.t -> t
(** The paper's dual-channel configuration. *)

val voted : required:int -> Channel.t list -> t
(** M-out-of-N system: at least [required] channels must command
    shutdown. *)

val channels : t -> Channel.t list
val adjudicator : t -> Adjudicator.t

val space : t -> Demandspace.Space.t
(** The demand space all channels operate over (taken from the first
    channel; [create] guarantees at least one). *)

val respond : t -> Demandspace.Demand.t -> Channel.output
(** System output on a demand. *)

val fails_on : t -> Demandspace.Demand.t -> bool
(** True when the adjudicated output is not [Shutdown] — a silent
    [No_action] and an unresolved [Abstain] both leave the demand
    unhandled. *)

val true_pfd : t -> float
(** Exact system PFD: sweep of the demand space under the operational
    profile (equals the intersection measure for the OR adjudicator). *)

val pp : Format.formatter -> t -> unit
