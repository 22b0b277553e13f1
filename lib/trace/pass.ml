type entry = {
  en_first_event : int;
  en_start_clock : int;
  en_live_bytes : int;
  en_live_objs : int;
  en_next_obj : int;
  en_carry : Binio.carry array;
}

let whole =
  {
    en_first_event = 0;
    en_start_clock = 0;
    en_live_bytes = 0;
    en_live_objs = 0;
    en_next_obj = 0;
    en_carry = [||];
  }

let entry_of_range (rg : Sharded.range) =
  {
    en_first_event = rg.Sharded.rg_first_event;
    en_start_clock = rg.Sharded.rg_start_clock;
    en_live_bytes = rg.Sharded.rg_live_bytes;
    en_live_objs = rg.Sharded.rg_live_objs;
    en_next_obj = rg.Sharded.rg_next_obj;
    en_carry = rg.Sharded.rg_carry;
  }

type step = Block.t -> int -> int -> unit

type ('part, 'out) t = {
  enter : Source.t -> entry -> step * (unit -> 'part);
  merge : Source.t -> 'part list -> 'out;
}

let fold p src en =
  let step, finish = p.enter src en in
  Source.iter_blocks step src;
  finish ()

let run p src = p.merge src [ fold p src whole ]

let run_range p rg =
  fold p (Sharded.range_source rg) (entry_of_range rg)

let map f p = { p with merge = (fun src parts -> f src (p.merge src parts)) }
let objects (src : Source.t) = Option.value src.n_objects_hint ~default:0
