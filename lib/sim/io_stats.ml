(** Counters describing the work performed against a storage environment.

    Experiments report simulated time, but the counters are what make the
    simulation auditable: tests assert, e.g., that a batched point lookup
    performs strictly fewer seeks than a naive one on the same key set. *)

type t = {
  mutable pages_read : int;  (** pages fetched from the device *)
  mutable seq_reads : int;  (** of which sequential w.r.t. the head *)
  mutable rand_reads : int;  (** of which required a positioning *)
  mutable pages_written : int;
  mutable write_batches : int;  (** distinct sequential write bursts *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable bloom_probes : int;
  mutable bloom_negatives : int;  (** probes answered "definitely absent" *)
  mutable bloom_fps : int;
      (** false positives: positive probes whose component search missed *)
  mutable bloom_cache_lines : int;  (** CPU cache lines touched by probes *)
  mutable comparisons : int;  (** key comparisons in searches and sorts *)
  mutable cursor_restarts : int;
      (** stateful B+-tree cursor searches that had to move backwards *)
}

let create () =
  {
    pages_read = 0;
    seq_reads = 0;
    rand_reads = 0;
    pages_written = 0;
    write_batches = 0;
    cache_hits = 0;
    cache_misses = 0;
    bloom_probes = 0;
    bloom_negatives = 0;
    bloom_fps = 0;
    bloom_cache_lines = 0;
    comparisons = 0;
    cursor_restarts = 0;
  }

let reset t =
  t.pages_read <- 0;
  t.seq_reads <- 0;
  t.rand_reads <- 0;
  t.pages_written <- 0;
  t.write_batches <- 0;
  t.cache_hits <- 0;
  t.cache_misses <- 0;
  t.bloom_probes <- 0;
  t.bloom_negatives <- 0;
  t.bloom_fps <- 0;
  t.bloom_cache_lines <- 0;
  t.comparisons <- 0;
  t.cursor_restarts <- 0

let copy t =
  {
    pages_read = t.pages_read;
    seq_reads = t.seq_reads;
    rand_reads = t.rand_reads;
    pages_written = t.pages_written;
    write_batches = t.write_batches;
    cache_hits = t.cache_hits;
    cache_misses = t.cache_misses;
    bloom_probes = t.bloom_probes;
    bloom_negatives = t.bloom_negatives;
    bloom_fps = t.bloom_fps;
    bloom_cache_lines = t.bloom_cache_lines;
    comparisons = t.comparisons;
    cursor_restarts = t.cursor_restarts;
  }

(** [diff a b] is the counter-wise difference [a - b]; useful for measuring
    a single operation against a shared environment. *)
let diff a b =
  {
    pages_read = a.pages_read - b.pages_read;
    seq_reads = a.seq_reads - b.seq_reads;
    rand_reads = a.rand_reads - b.rand_reads;
    pages_written = a.pages_written - b.pages_written;
    write_batches = a.write_batches - b.write_batches;
    cache_hits = a.cache_hits - b.cache_hits;
    cache_misses = a.cache_misses - b.cache_misses;
    bloom_probes = a.bloom_probes - b.bloom_probes;
    bloom_negatives = a.bloom_negatives - b.bloom_negatives;
    bloom_fps = a.bloom_fps - b.bloom_fps;
    bloom_cache_lines = a.bloom_cache_lines - b.bloom_cache_lines;
    comparisons = a.comparisons - b.comparisons;
    cursor_restarts = a.cursor_restarts - b.cursor_restarts;
  }

(** Every counter's name, in declaration order. *)
let names =
  [| "pages_read"; "seq_reads"; "rand_reads"; "pages_written";
     "write_batches"; "cache_hits"; "cache_misses"; "bloom_probes";
     "bloom_negatives"; "bloom_fps"; "bloom_cache_lines"; "comparisons";
     "cursor_restarts" |]

(** [read_into t a] writes every counter into [a], in {!names} order —
    a snapshot that allocates nothing. *)
let read_into t a =
  a.(0) <- t.pages_read;
  a.(1) <- t.seq_reads;
  a.(2) <- t.rand_reads;
  a.(3) <- t.pages_written;
  a.(4) <- t.write_batches;
  a.(5) <- t.cache_hits;
  a.(6) <- t.cache_misses;
  a.(7) <- t.bloom_probes;
  a.(8) <- t.bloom_negatives;
  a.(9) <- t.bloom_fps;
  a.(10) <- t.bloom_cache_lines;
  a.(11) <- t.comparisons;
  a.(12) <- t.cursor_restarts

(** [fields t] names every counter — the single source of truth for
    bridging into the metrics registry and for span I/O arguments. *)
let fields t =
  let a = Array.make (Array.length names) 0 in
  read_into t a;
  List.init (Array.length names) (fun i -> (names.(i), a.(i)))

let pp fmt t =
  Fmt.pf fmt
    "reads=%d (seq=%d rand=%d) writes=%d hits=%d misses=%d bloom=%d/%d \
     (fp=%d) cmp=%d restarts=%d"
    t.pages_read t.seq_reads t.rand_reads t.pages_written t.cache_hits
    t.cache_misses t.bloom_negatives t.bloom_probes t.bloom_fps t.comparisons
    t.cursor_restarts
