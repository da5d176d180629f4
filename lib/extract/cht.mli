(** The simulation forest and its analysis (Figure 3, after
    Chandra–Hadzilacos–Toueg [3]).

    The forest has [n + 1] trees; tree [i]'s initial configuration has
    processes [0 .. i-1] propose 1 and the rest propose 0 (so tree 0 is
    all-0 and tree n all-1).  Runs of the algorithm-under-test are
    simulated along paths of the sample sequence ({!Dag}); the *canonical*
    run of a tree follows the whole sequence, delivering to each stepping
    process its oldest pending message — a fair run, so the algorithm's
    Termination applies to it.  Valence tags and decision gadgets are
    computed over the canonical run plus its one-step λ-deviations: a
    bounded, prefix-stable exploration of the limit tree (each branch is a
    fixed function of an append-only sample array, so conclusions never
    flip — they only get refined as samples accrue).

    The module is generic in the algorithm's state, messages and detector;
    proposals are [int] (0/1 per the paper's binary QC) and decisions are
    whatever the algorithm outputs. *)

type ('st, 'msg, 'fd, 'out) t

val make :
  ('st, 'msg, 'fd, int, 'out) Sim.Protocol.t ->
  n:int ->
  fd0:'fd ->
  ('st, 'msg, 'fd, 'out) t

(** [run_tree t samples ~tree] is the canonical run of a whole tree. *)
val run_tree :
  ('st, 'msg, 'fd, 'out) t ->
  'fd Dag.sample array ->
  tree:int ->
  ('st, 'msg, 'out) Simconfig.t

(** [decision_of t samples ~tree ~pid]: [pid]'s decision in the tree's
    canonical run, if it decides. *)
val decision_of :
  ('st, 'msg, 'fd, 'out) t ->
  'fd Dag.sample array ->
  tree:int ->
  pid:Sim.Pid.t ->
  'out option

(** The critical index and the extracted leader (Section 6.3.1):
    - at a *univalent* critical index [i] (trees [i-1] and [i] decide
      differently), the leader is process [i-1], whose proposal separates
      the trees;
    - at a *multivalent* critical tree, the leader is the stepping process
      of the earliest decision gadget — the earliest position where
      delivering vs. skipping a message flips the decision;
    - if no critical index is resolvable yet (e.g. every simulated run
      decided Q), [None]. *)
val extract_leader :
  ('st, 'msg, 'fd, 'out) t -> 'fd Dag.sample array -> Sim.Pid.t option

(** [sigma_quorum t samples ~configs ~from_ ~pid]: Figure 3 lines 24–32 —
    extend every configuration in [configs] with fresh samples
    ([samples.(from_ ..)]) until [pid] decides in the extension; the quorum
    is the set of processes that take steps in those deciding extensions.
    [None] if some extension does not let [pid] decide yet. *)
val sigma_quorum :
  ('st, 'msg, 'fd, 'out) t ->
  'fd Dag.sample array ->
  configs:('st, 'msg, 'out) Simconfig.t list ->
  from_:int ->
  pid:Sim.Pid.t ->
  Sim.Pidset.t option

(** [deciding_prefix_configs t samples ~tree ~pid ~stride] — the
    configurations reached by the prefixes (every [stride]-th, plus the
    empty and full ones) of the canonical schedule of [tree], cut at
    [pid]'s decision point.  These play the role of the set [C] built from
    the agreed (I, S) pairs. *)
val deciding_prefix_configs :
  ('st, 'msg, 'fd, 'out) t ->
  'fd Dag.sample array ->
  tree:int ->
  pid:Sim.Pid.t ->
  stride:int ->
  ('st, 'msg, 'out) Simconfig.t list
