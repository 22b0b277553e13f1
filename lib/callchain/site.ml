type policy =
  | Complete_chain
  | Last_callers of int
  | Size_only
  | Encrypted_key

type t = { chain : Chain.t; size : int; hash : int }

let compute_hash chain size =
  let h = Chain.hash chain in
  (h * 31) + size land max_int

let make policy ~(raw_chain : Chain.t) ~key ~size =
  let chain =
    match policy with
    | Complete_chain -> Chain.eliminate_cycles raw_chain
    | Last_callers n -> Chain.last raw_chain n
    | Size_only -> [||]
    | Encrypted_key -> [| key |]
  in
  { chain; size; hash = compute_hash chain size }


let equal a b = a.size = b.size && a.hash = b.hash && Chain.equal a.chain b.chain

let compare a b =
  let c = Stdlib.compare a.size b.size in
  if c <> 0 then c else Chain.compare a.chain b.chain

let hash t = t.hash

let round_size ~multiple n =
  if multiple <= 0 then invalid_arg "Site.round_size: multiple must be positive";
  (n + multiple - 1) / multiple * multiple

let to_string tbl t =
  if Array.length t.chain = 0 then Printf.sprintf "[size=%d]" t.size
  else Printf.sprintf "[%s; size=%d]" (Chain.to_string tbl t.chain) t.size

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let policy_to_string = function
  | Complete_chain -> "complete-chain"
  | Last_callers n -> Printf.sprintf "last-%d-callers" n
  | Size_only -> "size-only"
  | Encrypted_key -> "encrypted-key"

let policy_of_string = function
  | "complete-chain" -> Some Complete_chain
  | "size-only" -> Some Size_only
  | "encrypted-key" -> Some Encrypted_key
  | s ->
      Scanf.sscanf_opt s "last-%d-callers%!" (fun n ->
          if n >= 1 then Some (Last_callers n) else None)
      |> Option.join
