(** Every claim checked about the paper, in one list.

    The paper's result is one table ({!theorems}): the weakest failure
    detector for registers, consensus, quittable consensus and NBAC, each
    with a sufficiency and a necessity direction.  A claim makes runs (a
    {!Runner.run}, an [Mc] search, a closed loop over the net runtime)
    and judges them.  [bin/check_paper.exe] runs {!all} and writes
    {!bench_json} and {!markdown}. *)

type direction = Sufficiency | Necessity

type theorem = {
  name : string;  (** "Thm 1", "Cor 4", ... *)
  problem : string;
  detector : string;  (** the weakest, in every environment *)
  sufficiency : string;  (** the module that shows "detector ⇒ problem" *)
  necessity : string;  (** the module that shows "problem ⇒ detector" *)
}

val theorems : theorem list

type table = { caption : string; header : string list; rows : string list list }

(** The runs' tables and the verdict; [Error] names the first failed
    condition. *)
type outcome = { tables : table list; verdict : (unit, string) result }

type t = {
  id : string;  (** "E1" … "E21", or a conformance id such as "T1-suff" *)
  paper : string;  (** theorem, figure or section *)
  backs : (string * direction) list;  (** names of the {!theorems} cells it backs *)
  title : string;  (** what the verdict checks *)
  run : unit -> outcome;
}

(** E1–E12 and T1-suff … T8b: simulator runs only, under a second. *)
val simulator : t list

(** {!simulator}, then E13–E21, which read the rows of {!bench_json}. *)
val all : t list

(** [check c] runs [c]; an exception fails the verdict. *)
val check : t -> outcome

(** [BENCH_weakest_fd.json]: deterministic counts only (schedules, steps,
    rounds, frames, instances, verdicts), byte-identical on any host.
    Each row group runs once, shared with the claims that read it. *)
val bench_json : unit -> string

(** [CLAIMS.md]: the result table, the verdicts, each claim's tables. *)
val markdown : (t * outcome) list -> string
