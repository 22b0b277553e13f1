(* Spans for the traced run: name, start, end and parent, all tagged with
   one id for the workload run.  They are kept in memory and written once
   at exit as Chrome trace-event JSON (load it in chrome://tracing or
   Perfetto).  The untraced run never calls into this module. *)

type t = {
  id : int;
  name : string;
  parent : int;  (* -1 for a top-level span *)
  t0 : float;
  mutable t1 : float;
}

let recorded : t list ref = ref []
let open_spans : t list ref = ref []
let next_id = ref 0

let enter name =
  let parent = match !open_spans with p :: _ -> p.id | [] -> -1 in
  let s = { id = !next_id; name; parent; t0 = Unix.gettimeofday (); t1 = nan } in
  incr next_id;
  recorded := s :: !recorded;
  open_spans := s :: !open_spans;
  s

let leave s =
  s.t1 <- Unix.gettimeofday ();
  match !open_spans with
  | top :: rest when top == s -> open_spans := rest
  | _ -> failwith ("Span.leave: " ^ s.name ^ " is not the innermost open span")

let with_ name f =
  let s = enter name in
  Fun.protect ~finally:(fun () -> leave s) f

let duration s = s.t1 -. s.t0
let all () = List.rev !recorded

(* total seconds spent in spans called [name] *)
let total name =
  List.fold_left
    (fun acc s -> if String.equal s.name name then acc +. duration s else acc)
    0. !recorded

(* a span's duration minus the part its direct children cover; children
   of one parent never overlap (every span nests on one domain's stack) *)
let self s =
  duration s
  -. List.fold_left
       (fun acc c -> if c.parent = s.id then acc +. duration c else acc)
       0. !recorded

let to_chrome_json ~run_id =
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity !recorded in
  let open Lp_report.Json in
  let us x = Number (Float.round (x *. 1e6)) in
  List
    (List.map
       (fun s ->
         Obj
           [
             ("name", String s.name);
             ("cat", String "perfbench");
             ("ph", String "X");
             ("ts", us (s.t0 -. origin));
             ("dur", us (duration s));
             ("pid", Number 1.);
             ("tid", Number 1.);
             ( "args",
               Obj
                 [
                   ("id", Number (float_of_int s.id));
                   ("parent", Number (float_of_int s.parent));
                   ("run", String run_id);
                   ("self_us", us (self s));
                 ] );
           ])
       (all ()))

(* per-name calls, total and self seconds, for the stderr table *)
let self_table () =
  let rows = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let calls, tot, slf =
        Option.value (Hashtbl.find_opt rows s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace rows s.name (calls + 1, tot +. duration s, slf +. self s))
    !recorded;
  Hashtbl.fold (fun name r acc -> (name, r) :: acc) rows []
  |> List.sort (fun (_, (_, _, a)) (_, (_, _, b)) -> Float.compare b a)
