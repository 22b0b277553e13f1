(* Open addressing with linear probing.  Each slot is three consecutive
   ints of [slots] — the site id ([-1] = empty), its chain and its size —
   so a probe reads only this one array and calls into no other module.
   The table is kept at most half full.  The pairs are also kept per id
   in [chains]/[sizes], the in-order site list the domains' summaries
   publish. *)

type t = {
  mutable slots : int array;  (* 3 × a power-of-two slot count *)
  mutable mask : int;  (* slot count - 1 *)
  mutable chains : int array;  (* by id *)
  mutable sizes : int array;
  mutable length : int;
}

let create n =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  {
    slots = Array.make (3 * !cap) (-1);
    mask = !cap - 1;
    chains = Array.make (max 16 n) 0;
    sizes = Array.make (max 16 n) 0;
    length = 0;
  }

let length t = t.length
let chain t id = t.chains.(id)
let size t id = t.sizes.(id)
let chains t = Array.sub t.chains 0 t.length
let sizes t = Array.sub t.sizes 0 t.length

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) (-1);
  t.length <- 0

(* Multiply-xorshift mix of both words, so pairs differing only in high
   bits (sizes past 2^31, negative chains) still spread over the slots. *)
let[@inline] hash chain size =
  let h = (chain * 0x9E3779B97F4A7C1) lxor size in
  let h = (h lxor (h lsr 31)) * 0x2545F4914F6CDD1 in
  h lxor (h lsr 29)

(* the first int of the slot holding the pair, or of the empty slot
   where it belongs; a top-level loop rather than a local closure, so a
   probe allocates nothing *)
let rec probe slots mask chain size i =
  let j = 3 * i in
  let id = Array.unsafe_get slots j in
  if
    id < 0
    || (Array.unsafe_get slots (j + 1) = chain
       && Array.unsafe_get slots (j + 2) = size)
  then j
  else probe slots mask chain size ((i + 1) land mask)

let fill_slot slots j id chain size =
  Array.unsafe_set slots j id;
  Array.unsafe_set slots (j + 1) chain;
  Array.unsafe_set slots (j + 2) size

let grow t =
  let mask = (2 * (t.mask + 1)) - 1 in
  let slots = Array.make (3 * (mask + 1)) (-1) in
  for id = 0 to t.length - 1 do
    let chain = t.chains.(id) and size = t.sizes.(id) in
    fill_slot slots (probe slots mask chain size (hash chain size land mask)) id
      chain size
  done;
  t.slots <- slots;
  t.mask <- mask

let grow_columns t =
  let n = 2 * Array.length t.chains in
  let extend a =
    let a' = Array.make n 0 in
    Array.blit a 0 a' 0 t.length;
    a'
  in
  t.chains <- extend t.chains;
  t.sizes <- extend t.sizes

(* a pair not at its home slot: probe on, and number it if absent *)
let intern_probe t chain size i =
  let slots = t.slots in
  let j = probe slots t.mask chain size i in
  let id = Array.unsafe_get slots j in
  if id >= 0 then id
  else begin
    let id = t.length in
    if id = Array.length t.chains then grow_columns t;
    Array.unsafe_set t.chains id chain;
    Array.unsafe_set t.sizes id size;
    t.length <- id + 1;
    fill_slot slots j id chain size;
    if 2 * t.length > t.mask + 1 then grow t;
    id
  end

(* the home slot is checked inline: at most half full, most lookups
   end there *)
let intern t chain size =
  let slots = t.slots in
  let i = hash chain size land t.mask in
  let j = 3 * i in
  let id = Array.unsafe_get slots j in
  if
    id >= 0
    && Array.unsafe_get slots (j + 1) = chain
    && Array.unsafe_get slots (j + 2) = size
  then id
  else intern_probe t chain size i
