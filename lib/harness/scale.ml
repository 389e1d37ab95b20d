(** Experiment scaling.

    The paper's testbed ingests 80-100M ~500B tweets (30GB+) into a node
    with a 2GB buffer cache, 128MB memory-component budget, and a 1GB
    maximum mergeable component size, over 6-12 hour runs.  We reproduce
    the *ratios* at a size that runs in seconds of host time:

    - data : cache ≈ 15:1 (the dataset must not fit in cache, or every
      strategy degenerates to CPU cost);
    - data : memory budget ≈ 240:1 (dozens of flushes per run);
    - data : max mergeable component ≈ 30:1 (components accumulate);
    - device profiles are *unscaled* (a seek costs what a seek costs) so
      that random-vs-sequential trade-offs keep their real proportions. *)

type t = { name : string; records : int }

let tiny = { name = "tiny"; records = 20_000 }
let small = { name = "small"; records = 60_000 }
let medium = { name = "medium"; records = 150_000 }
let large = { name = "large"; records = 400_000 }

let all = [ tiny; small; medium; large ]

let of_string s =
  match List.find_opt (fun t -> t.name = s) all with
  | Some t -> t
  | None -> invalid_arg ("unknown scale: " ^ s ^ " (tiny|small|medium|large)")

(** Derived knobs, all proportional to the record count (at ~500B/record).
    [data_bytes] is the primary-index payload volume. *)
let data_bytes t = t.records * 500

let cache_bytes t = max (512 * 1024) (data_bytes t / 15)
let mem_budget t = max (128 * 1024) (data_bytes t / 48)
let max_mergeable_bytes t = max (256 * 1024) (data_bytes t / 30)

(** The small-cache variant of Fig. 18 (512MB vs 2GB in the paper). *)
let small_cache_bytes t = cache_bytes t / 4

(** Serving-layer knobs (lib/serve).  The user population is larger than
    the record count — most users are cold, the Zipf head is hot — and
    the global memory budget is *half* of what [partitions] independent
    datasets would claim, so the cross-partition flush coordinator has
    real work to do. *)
let serve_users t = t.records * 5 / 2

let serve_preload t = t.records / 2
let serve_duration_s t = Float.of_int t.records /. 20_000.0
let serve_budget_bytes t ~partitions = mem_budget t * partitions / 2

(** Scaled device profiles.

    Running 500x-smaller datasets against full-size 128KB pages would
    leave the buffer cache with a handful of page slots — cache behaviour,
    which drives the whole evaluation, would be destroyed.  We therefore
    scale page size *and* per-page times by the same factor (16), which
    preserves the seek:transfer cost ratio (8.5ms : 1.25ms ≈ 6.8:1 on the
    HDD, ~1:1 on the SSD) and gives the cache a realistic page count. *)
let hdd_device =
  Lsm_sim.Device.custom ~name:"hdd/16" ~page_size:(8 * 1024) ~seek_us:531.0
    ~read_us_per_page:78.0 ~write_us_per_page:78.0

let ssd_device =
  Lsm_sim.Device.custom ~name:"ssd/16" ~page_size:(2 * 1024) ~seek_us:3.75
    ~read_us_per_page:3.9 ~write_us_per_page:4.7
