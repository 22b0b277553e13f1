type kind = Alloc | Free | Realloc | Touch

type t = {
  kinds : Bytes.t;
  obj : int array;
  size : int array;
  new_size : int array;
  chain : int array;
  key : int array;
  tag : int array;
  mutable len : int;
}

(* Large enough that the per-block hand-off is noise next to the events,
   small enough that a block's columns (about 50 bytes a slot) stay in
   cache between the filler writing them and the consumer reading them. *)
let capacity = 1024

let make n =
  {
    kinds = Bytes.make n '\000';
    obj = Array.make n 0;
    size = Array.make n 0;
    new_size = Array.make n 0;
    chain = Array.make n 0;
    key = Array.make n 0;
    tag = Array.make n 0;
    len = 0;
  }

let create () = make capacity
let empty = make 0
let slots b = Bytes.length b.kinds

let[@inline] kind b i =
  match Bytes.unsafe_get b.kinds i with
  | '\000' -> Alloc
  | '\001' -> Free
  | '\002' -> Realloc
  | _ -> Touch

let[@inline] set_alloc b i ~obj ~size ~chain ~key ~tag =
  Bytes.unsafe_set b.kinds i '\000';
  Array.unsafe_set b.obj i obj;
  Array.unsafe_set b.size i size;
  Array.unsafe_set b.chain i chain;
  Array.unsafe_set b.key i key;
  Array.unsafe_set b.tag i tag

let[@inline] set_free b i ~obj ~size =
  Bytes.unsafe_set b.kinds i '\001';
  Array.unsafe_set b.obj i obj;
  Array.unsafe_set b.size i size

let[@inline] set_realloc b i ~obj ~old_size ~new_size ~chain ~key ~tag =
  Bytes.unsafe_set b.kinds i '\002';
  Array.unsafe_set b.obj i obj;
  Array.unsafe_set b.size i old_size;
  Array.unsafe_set b.new_size i new_size;
  Array.unsafe_set b.chain i chain;
  Array.unsafe_set b.key i key;
  Array.unsafe_set b.tag i tag

let[@inline] set_touch b i ~obj ~count =
  Bytes.unsafe_set b.kinds i '\003';
  Array.unsafe_set b.obj i obj;
  Array.unsafe_set b.size i count

let get b i =
  let obj = Array.unsafe_get b.obj i in
  match kind b i with
  | Alloc ->
      Event.Alloc
        {
          obj;
          size = Array.unsafe_get b.size i;
          chain = Array.unsafe_get b.chain i;
          key = Array.unsafe_get b.key i;
          tag = Array.unsafe_get b.tag i;
        }
  | Free -> Event.Free { obj; size = Array.unsafe_get b.size i }
  | Realloc ->
      Event.Realloc
        {
          obj;
          old_size = Array.unsafe_get b.size i;
          new_size = Array.unsafe_get b.new_size i;
          chain = Array.unsafe_get b.chain i;
          key = Array.unsafe_get b.key i;
          tag = Array.unsafe_get b.tag i;
        }
  | Touch -> Event.Touch { obj; count = Array.unsafe_get b.size i }

let push b e =
  let i = b.len in
  if i >= Bytes.length b.kinds then invalid_arg "Block.push: block is full";
  (match e with
  | Event.Alloc { obj; size; chain; key; tag } -> set_alloc b i ~obj ~size ~chain ~key ~tag
  | Event.Free { obj; size } -> set_free b i ~obj ~size
  | Event.Realloc { obj; old_size; new_size; chain; key; tag } ->
      set_realloc b i ~obj ~old_size ~new_size ~chain ~key ~tag
  | Event.Touch { obj; count } -> set_touch b i ~obj ~count);
  b.len <- i + 1
