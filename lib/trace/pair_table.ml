(* Open addressing with linear probing.  [slots] holds site ids ([-1] =
   empty) and is kept at most half full; the pairs live per id in the
   growable [chains]/[sizes] tables, which double as the in-order site
   list the domains' summaries publish. *)

type t = {
  mutable slots : int array;  (* power-of-two length *)
  chains : Grow.t;
  sizes : Grow.t;
}

let create n =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  {
    slots = Array.make !cap (-1);
    chains = Grow.create n;
    sizes = Grow.create n;
  }

let length t = Grow.length t.chains
let chain t id = Grow.get t.chains id
let size t id = Grow.get t.sizes id
let chains t = Grow.to_array t.chains
let sizes t = Grow.to_array t.sizes

(* Multiply-xorshift mix of both words, so pairs differing only in high
   bits (sizes past 2^31, negative chains) still spread over the slots. *)
let hash chain size =
  let h = (chain * 0x9E3779B97F4A7C1) lxor size in
  let h = (h lxor (h lsr 31)) * 0x2545F4914F6CDD1 in
  h lxor (h lsr 29)

(* the slot holding the pair, or the empty slot where it belongs; a
   top-level loop rather than a local closure, so a probe allocates
   nothing *)
let rec probe t chain size mask i =
  let id = Array.unsafe_get t.slots i in
  if
    id < 0
    || (Grow.get t.chains id = chain
       && Grow.get t.sizes id = size)
  then i
  else probe t chain size mask ((i + 1) land mask)

let slot t chain size =
  let mask = Array.length t.slots - 1 in
  probe t chain size mask (hash chain size land mask)

let grow t =
  let n = Array.length t.slots * 2 in
  t.slots <- Array.make n (-1);
  for id = 0 to length t - 1 do
    let i = slot t (chain t id) (size t id) in
    Array.unsafe_set t.slots i id
  done

let intern t chain size =
  let i = slot t chain size in
  let id = Array.unsafe_get t.slots i in
  if id >= 0 then id
  else begin
    let id = length t in
    Grow.push t.chains chain;
    Grow.push t.sizes size;
    Array.unsafe_set t.slots i id;
    if 2 * length t > Array.length t.slots then grow t;
    id
  end
