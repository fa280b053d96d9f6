open Dds_net

(** The alpha of indulgent consensus, over regular registers.

    Guerraoui & Raynal's alpha abstraction (the paper's reference
    [14]; the register-based construction follows Gafni & Lamport's
    Disk Paxos [11]) provides [propose (round, value)] with:

    - {b validity}: a commit returns a proposed value;
    - {b agreement}: no two commits return different values;
    - {b conditional convergence}: a propose that runs with a round
      higher than every concurrent one, alone, commits.

    Crucially it is safe with {e regular} (not atomic) registers —
    which is exactly why the paper's introduction presents regular
    registers as a consensus-capable abstraction for dynamic systems.

    The construction: participant [i] owns register [i] holding
    [{lre; lrww; v}] (see {!Codec}). A propose by the owner of
    register [self_reg] with round [r]:

    + writes [{lre = r}] to its register (announcing the round);
    + reads all registers; aborts if any shows [lre > r] or
      [lrww > r] (someone moved past us);
    + adopts the value of the highest [lrww] (its own proposal if all
      are ⊥);
    + writes [{lre = r; lrww = r; v = adopted}];
    + reads all registers again; aborts if any [lre > r];
    + commits the adopted value.

    Rounds used by distinct participants must be disjoint
    ({!round_for} gives the canonical scheme) and each participant's
    rounds must increase. *)

type outcome =
  | Commit of int  (** the decided-able value *)
  | Abort of string  (** a higher round interfered; the reason names it *)

val round_for : participant_index:int -> attempt:int -> k:int -> int
(** Disjoint, increasing round numbers: [attempt * k + participant_index + 1]
    (rounds start at 1 so that round 0 means "never entered"). *)

val propose :
  Register_array.t ->
  self:Pid.t ->
  self_reg:int ->
  round:int ->
  value:int ->
  k:(outcome -> unit) ->
  unit
(** Runs one alpha attempt. [self] must own register [self_reg]; the
    continuation fires when the attempt resolves (never, if [self]
    leaves mid-attempt — the register operations die with it).
    @raise Invalid_argument if [value] is 0 (reserved for ⊥) or
    outside the codec's field range, or if [self] does not own
    [self_reg]. *)
