(** Experiment scaling: record counts and every byte-sized knob scale
    together, preserving the paper's ratios (data:cache ≈ 15:1,
    data:memory-budget ≈ 48:1, data:max-mergeable ≈ 30:1); device page
    size and per-page times scale by one factor (16) so the seek:transfer
    ratio and the cache's page count stay realistic.  See DESIGN.md §5. *)

type t = { name : string; records : int }

val tiny : t  (** 20K records *)

val small : t  (** 60K records (default) *)

val medium : t  (** 150K records *)

val large : t  (** 400K records *)

val all : t list
(** Every scale, smallest first. *)

val of_string : string -> t
(** @raise Invalid_argument for unknown names. *)

val data_bytes : t -> int
val cache_bytes : t -> int
val mem_budget : t -> int
val max_mergeable_bytes : t -> int

val small_cache_bytes : t -> int
(** The Fig. 18 small-cache variant (a quarter of the default). *)

(** {1 Serving-layer knobs (lib/serve)} *)

val serve_users : t -> int
(** Zipf user-population size: 2.5x the record count (most users cold). *)

val serve_preload : t -> int
(** Records ingested before the open-loop phase starts. *)

val serve_duration_s : t -> float
(** Simulated seconds of open-loop traffic (1s per 20K records). *)

val serve_budget_bytes : t -> partitions:int -> int
(** Global memory budget shared by all partitions: half of what
    [partitions] independent datasets would claim. *)

val hdd_device : Lsm_sim.Device.t
(** HDD profile scaled 16x: 8KB pages, 531us seek, 78us/page. *)

val ssd_device : Lsm_sim.Device.t
(** SSD profile scaled 16x: 2KB pages, ~4us latency. *)
