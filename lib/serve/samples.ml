(** The serving driver's per-request samples, as flat columns.

    One completed request is a class index, a phase index, and its
    arrival, queueing and service times.  Each is a column (two int
    arrays, three unboxed float arrays) grown by doubling, in completion
    order, so a sample costs five words (up to ten while the last
    doubling's room is unused), and an SLO table reads the columns by
    position instead of copying samples into lists. *)

type class_stats = {
  cls : string;
  count : int;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  mean_queue_us : float;
  mean_service_us : float;
}

type t = {
  mutable n : int;
  mutable cls : int array;
  mutable phase : int array;
  mutable arrival : float array;
  mutable queue : float array;
  mutable service : float array;
  mutable scratch : float array;
      (** one table's latencies; allocated at the first table and reused *)
}

let create () =
  let c = 1024 in
  {
    n = 0;
    cls = Array.make c 0;
    phase = Array.make c 0;
    arrival = Array.create_float c;
    queue = Array.create_float c;
    service = Array.create_float c;
    scratch = [||];
  }

let cls t i = t.cls.(i)
let phase t i = t.phase.(i)

let grow t =
  let c = 2 * Array.length t.cls in
  let ints a =
    let b = Array.make c 0 in
    Array.blit a 0 b 0 t.n;
    b
  in
  let floats a =
    let b = Array.create_float c in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.cls <- ints t.cls;
  t.phase <- ints t.phase;
  t.arrival <- floats t.arrival;
  t.queue <- floats t.queue;
  t.service <- floats t.service

let push t ~cls ~phase ~arrival_us ~queue_us ~service_us =
  if t.n = Array.length t.cls then grow t;
  let i = t.n in
  t.cls.(i) <- cls;
  t.phase.(i) <- phase;
  t.arrival.(i) <- arrival_us;
  t.queue.(i) <- queue_us;
  t.service.(i) <- service_us;
  t.n <- i + 1

(** [table t name keep] is the SLO row of the samples [i] with [keep i]:
    their count, the nearest-rank p50/p95/p99 of [queue + service] (nan
    latencies dropped; 0 when nothing is selected), and the mean queue
    and service times, summed in completion order. *)
let table t name keep =
  if Array.length t.scratch < t.n then t.scratch <- Array.create_float t.n;
  let lat = t.scratch in
  let count = ref 0 and finite = ref 0 in
  let sq = ref 0.0 and ss = ref 0.0 in
  for i = 0 to t.n - 1 do
    if keep i then begin
      incr count;
      let q = t.queue.(i) and s = t.service.(i) in
      sq := !sq +. q;
      ss := !ss +. s;
      let l = q +. s in
      if not (Float.is_nan l) then begin
        lat.(!finite) <- l;
        incr finite
      end
    end
  done;
  let count = !count in
  let ps =
    if count = 0 then [| 0.0; 0.0; 0.0 |]
    else Lsm_obs.Stats.sorted_percentiles lat !finite [| 50.0; 95.0; 99.0 |]
  in
  let mean sum = if count = 0 then 0.0 else sum /. Float.of_int count in
  {
    cls = name;
    count;
    p50_us = ps.(0);
    p95_us = ps.(1);
    p99_us = ps.(2);
    mean_queue_us = mean !sq;
    mean_service_us = mean !ss;
  }

(** [mean_queue_halves t ~half] is the mean queueing delay of the
    samples that arrived before [half] and of those that arrived at or
    after it (0 for an empty half), in one pass. *)
let mean_queue_halves t ~half =
  let n1 = ref 0 and s1 = ref 0.0 and n2 = ref 0 and s2 = ref 0.0 in
  for i = 0 to t.n - 1 do
    if t.arrival.(i) < half then begin
      incr n1;
      s1 := !s1 +. t.queue.(i)
    end
    else if t.arrival.(i) >= half then begin
      incr n2;
      s2 := !s2 +. t.queue.(i)
    end
  done;
  let mean n s = if n = 0 then 0.0 else s /. Float.of_int n in
  (mean !n1 !s1, mean !n2 !s2)
