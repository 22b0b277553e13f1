type t = { mutable data : int array; mutable len : int; default : int }

let create ?(default = 0) hint =
  { data = Array.make (max 16 hint) default; len = 0; default }

let length t = t.len

(* Invariant: data.(i) = default for every i >= len, so extending the
   logical length never needs a fill pass. *)
let ensure t n =
  if n > Array.length t.data then begin
    (* The doubling must clamp at [Sys.max_array_length]: a plain
       [cap := 2 * !cap] wraps negative for huge [n], escapes the loop
       and dies inside [Array.make] with a context-free error. *)
    if n > Sys.max_array_length then
      failwith
        (Printf.sprintf
           "Grow.ensure: requested length %d exceeds Sys.max_array_length (%d)"
           n Sys.max_array_length);
    let cap = ref (Array.length t.data) in
    while n > !cap do
      cap :=
        if !cap >= Sys.max_array_length / 2 then Sys.max_array_length
        else 2 * !cap
    done;
    let grown = Array.make !cap t.default in
    Array.blit t.data 0 grown 0 t.len;
    t.data <- grown
  end;
  if n > t.len then t.len <- n

let get t i = if i < t.len then Array.unsafe_get t.data i else t.default

let set t i x =
  ensure t (i + 1);
  Array.unsafe_set t.data i x

let push t x = set t t.len x
let to_array t = Array.sub t.data 0 t.len

let freeze t =
  if t.len = Array.length t.data then t.data else to_array t

module Flags = struct
  type t = { mutable bytes : Bytes.t }

  let create hint = { bytes = Bytes.make (max 16 hint) '\000' }

  let ensure t n =
    if n > Bytes.length t.bytes then begin
      if n > Sys.max_string_length then
        failwith
          (Printf.sprintf
             "Grow.Flags.ensure: requested length %d exceeds \
              Sys.max_string_length (%d)"
             n Sys.max_string_length);
      let cap = ref (Bytes.length t.bytes) in
      while n > !cap do
        cap :=
          if !cap >= Sys.max_string_length / 2 then Sys.max_string_length
          else 2 * !cap
      done;
      let grown = Bytes.make !cap '\000' in
      Bytes.blit t.bytes 0 grown 0 (Bytes.length t.bytes);
      t.bytes <- grown
    end

  let get t i =
    if i < Bytes.length t.bytes then Char.code (Bytes.unsafe_get t.bytes i)
    else 0

  let add t i bits =
    ensure t (i + 1);
    Bytes.unsafe_set t.bytes i
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bytes i) lor bits))

  let mem t i bit = get t i land bit <> 0
end
