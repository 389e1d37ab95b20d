(** A page-granular LRU buffer cache.

    Mirrors the disk buffer cache of the paper's setup (2GB on the hard
    disk node, 4GB on the SSD node, 512MB in the small-cache experiment of
    Fig. 18).  Keys are (file id, page number); the cache stores no data —
    files in this simulation are phantom — only residency, which is what
    the cost model needs.

    Implementation: an intrusive doubly-linked LRU list over flat int
    arrays, indexed by an open-addressing int table.  Every page access
    passes through here, so a hit, a miss, an insert or an eviction
    allocates nothing: a resident page is a slot [s] whose [file.(s)],
    [page.(s)], [prev.(s)] and [next.(s)] are plain ints ([nil] is none),
    and the table maps a key to its slot with linear probing and
    backward-shift deletion.  Unused slots form a free list threaded
    through [next].  The slot arrays double on demand up to [capacity],
    so memory tracks the resident set rather than the configured size. *)

let nil = -1

(** Slots allocated by {!create} and {!clear}; the arrays double from
    here up to [capacity]. *)
let initial_slots = 16

type t = {
  capacity : int;  (** max resident pages; 0 disables caching *)
  mutable file : int array;  (** slot -> file id *)
  mutable page : int array;  (** slot -> page number *)
  mutable prev : int array;  (** slot -> more recently used slot *)
  mutable next : int array;
      (** slot -> less recently used slot, or the next free slot *)
  mutable table : int array;
      (** bucket -> slot or [nil]; a power of two at least twice the
          slot count, so the load factor stays at or below 1/2 *)
  mutable free : int;  (** head of the free-slot list *)
  mutable head : int;  (** most recently used slot *)
  mutable tail : int;  (** least recently used slot *)
  mutable size : int;
}

(* Mixes both key halves into a bucket index; cache behaviour never
   depends on the hash, only probe lengths do. *)
let bucket t file page =
  let h = (file * 0x2545F491) + page in
  let h = h lxor (h lsr 29) in
  let h = h * 0x4F1BBCDD in
  (h lxor (h lsr 32)) land (Array.length t.table - 1)

let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (2 * p)

(* Fresh arrays of [n] slots, all on the free list, and an empty table. *)
let alloc t n =
  t.file <- Array.make n nil;
  t.page <- Array.make n nil;
  t.prev <- Array.make n nil;
  t.next <- Array.init n (fun s -> if s + 1 < n then s + 1 else nil);
  t.table <- Array.make (pow2_at_least (2 * n) 1) nil;
  t.free <- (if n > 0 then 0 else nil);
  t.head <- nil;
  t.tail <- nil;
  t.size <- 0

let create ~capacity_pages =
  let capacity = max capacity_pages 0 in
  let t =
    {
      capacity;
      file = [||];
      page = [||];
      prev = [||];
      next = [||];
      table = [||];
      free = nil;
      head = nil;
      tail = nil;
      size = 0;
    }
  in
  alloc t (min capacity initial_slots);
  t

let size t = t.size
let capacity t = t.capacity

(* The bucket holding [(file, page)], or [nil]. *)
let rec probe t file page b =
  let s = t.table.(b) in
  if s = nil then nil
  else if t.file.(s) = file && t.page.(s) = page then b
  else probe t file page ((b + 1) land (Array.length t.table - 1))

let find t ~file ~page = probe t file page (bucket t file page)

let rec place t s b =
  if t.table.(b) = nil then t.table.(b) <- s
  else place t s ((b + 1) land (Array.length t.table - 1))

(* Empties bucket [hole], then walks the run after it, shifting back every
   entry whose home bucket does not lie cyclically in (hole, j]. *)
let rec shift_back t hole j =
  let mask = Array.length t.table - 1 in
  let s = t.table.(j) in
  if s = nil then t.table.(hole) <- nil
  else if (j - bucket t t.file.(s) t.page.(s)) land mask >= (j - hole) land mask
  then begin
    t.table.(hole) <- s;
    shift_back t j ((j + 1) land mask)
  end
  else shift_back t hole ((j + 1) land mask)

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p = nil then t.head <- n else t.next.(p) <- n;
  if n = nil then t.tail <- p else t.prev.(n) <- p

let push_front t s =
  t.prev.(s) <- nil;
  t.next.(s) <- t.head;
  if t.head = nil then t.tail <- s else t.prev.(t.head) <- s;
  t.head <- s

(* Drops the page in bucket [b] and returns its slot to the free list. *)
let remove_at t b =
  let s = t.table.(b) in
  unlink t s;
  shift_back t b ((b + 1) land (Array.length t.table - 1));
  t.next.(s) <- t.free;
  t.free <- s;
  t.size <- t.size - 1

(* Doubles the slot arrays (up to [capacity]) and rehashes; LRU order and
   slot numbers are kept. *)
let grow t =
  let old_n = Array.length t.file in
  let n = min t.capacity (2 * old_n) in
  let extend a = Array.init n (fun s -> if s < old_n then a.(s) else nil) in
  t.file <- extend t.file;
  t.page <- extend t.page;
  t.prev <- extend t.prev;
  t.next <- extend t.next;
  for s = n - 1 downto old_n do
    t.next.(s) <- t.free;
    t.free <- s
  done;
  t.table <- Array.make (pow2_at_least (2 * n) 1) nil;
  let s = ref t.head in
  while !s <> nil do
    place t !s (bucket t t.file.(!s) t.page.(!s));
    s := t.next.(!s)
  done

let mem t ~file ~page = find t ~file ~page <> nil

let touch t ~file ~page =
  let b = find t ~file ~page in
  if b = nil then false
  else begin
    let s = t.table.(b) in
    unlink t s;
    push_front t s;
    true
  end

(** [insert t ~file ~page] makes the page resident at MRU position,
    evicting the LRU page if at capacity.  An already-resident page is
    promoted to MRU; a zero-capacity cache ignores the call. *)
let insert t ~file ~page =
  if t.capacity > 0 && not (touch t ~file ~page) then begin
    if t.size >= t.capacity then
      remove_at t (find t ~file:t.file.(t.tail) ~page:t.page.(t.tail));
    if t.free = nil then grow t;
    let s = t.free in
    t.free <- t.next.(s);
    t.file.(s) <- file;
    t.page.(s) <- page;
    push_front t s;
    place t s (bucket t file page);
    t.size <- t.size + 1
  end

(** [remove t ~file ~page] discards one resident page (a checksum-failed
    copy must not be served from cache).  A no-op if not resident. *)
let remove t ~file ~page =
  let b = find t ~file ~page in
  if b <> nil then remove_at t b

(** [drop_file t file_id] discards all resident pages of a deleted file so
    they stop occupying capacity (components are deleted after a merge). *)
let drop_file t file_id =
  let s = ref t.head in
  while !s <> nil do
    let n = t.next.(!s) in
    if t.file.(!s) = file_id then
      remove_at t (find t ~file:file_id ~page:t.page.(!s));
    s := n
  done

(** [clear t] empties the cache (used to run cold-cache experiments) and
    releases its arrays back to the initial size. *)
let clear t = alloc t (min t.capacity initial_slots)
