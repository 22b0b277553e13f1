type entry = {
  name : string;
  aliases : string list;
  doc : string;
  make : ?arena_config:Arena.config -> unit -> Backend.t;
}

let entries : entry list ref = ref []

let register ~name ?(aliases = []) ~doc make =
  if List.exists (fun e -> e.name = name) !entries then
    invalid_arg (Printf.sprintf "Registry.register: duplicate backend %S" name);
  entries := !entries @ [ { name; aliases; doc; make } ]

let all () = !entries
let names () = List.map (fun e -> e.name) !entries

let find_opt name =
  List.find_opt (fun e -> e.name = name || List.mem name e.aliases) !entries

let mem name = find_opt name <> None

let find name =
  match find_opt name with
  | Some e -> e
  | None ->
      failwith
        (Printf.sprintf "unknown allocator backend %S (known: %s)" name
           (String.concat ", " (names ())))

let backend ?arena_config name = (find name).make ?arena_config ()

let canonical_name name = (find name).name

(* -- parameterized backend specs ---------------------------------------------------

   A spec is [name:key=value:key=value...]; the name may be an alias, ':'
   separates parameters (',' stays the CLI's list separator) and
   list-valued parameters use '+' between elements.  Parsing returns
   [Error] with a one-line reason — the CLIs turn that into a usage error
   (exit 2) — and never raises.  A spec with every parameter at its
   default builds the very same backend as the plain name (the qcheck
   equivalence property holds them byte-identical). *)

let spec_params_of = function
  | "first-fit" | "best-fit" ->
      [
        {
          Spec.key = "sbrk";
          grammar = "<bytes>";
          param_doc = "simulated sbrk granularity: positive multiple of 8";
          default = "8192";
        };
      ]
  | "segfit" ->
      [
        {
          Spec.key = "slab";
          grammar = "<n>+<n>+...";
          param_doc =
            "slab cell-size ladder: strictly ascending multiples of 16 in \
             [16, 4096], at most 128 entries";
          default = "16+32+64+128+256+512+1024+2048";
        };
      ]
  | "arena" ->
      [
        {
          Spec.key = "n";
          grammar = "<count>";
          param_doc = "number of arenas, in [1, 4096]";
          default = "16";
        };
        {
          key = "chunk";
          grammar = "<bytes>";
          param_doc = "per-arena size in bytes, in [64, 1048576]";
          default = "4096";
        };
        {
          key = "fallback";
          grammar = "<name>";
          param_doc =
            "general-purpose fallback backend: any plain backend name \
             except arena";
          default = "first-fit";
        };
      ]
  | _ -> []

let ( let* ) = Result.bind

let parse_slab spec v =
  let* cells =
    List.fold_left
      (fun acc part ->
        let* acc = acc in
        let* n = Spec.int_value spec ~key:"slab" part in
        Ok (n :: acc))
      (Ok [])
      (String.split_on_char '+' v)
  in
  let cells = Array.of_list (List.rev cells) in
  if Array.length cells = 0 then Spec.error spec "parameter slab: empty ladder"
  else if Array.length cells > 128 then
    Spec.error spec "parameter slab: %d classes (at most 128)" (Array.length cells)
  else
    let bad = ref None in
    Array.iteri
      (fun i c ->
        if !bad = None then
          if c mod 16 <> 0 then
            bad := Some (Printf.sprintf "class %d is not a multiple of 16" c)
          else if c < 16 || c > 4096 then
            bad := Some (Printf.sprintf "class %d outside [16, 4096]" c)
          else if i > 0 && c <= cells.(i - 1) then
            bad := Some (Printf.sprintf "classes not strictly ascending at %d" c))
      cells;
    match !bad with
    | Some msg -> Spec.error spec "parameter slab: %s" msg
    | None -> Ok cells

(* Split [name:k=v:...]; every parameter key must belong to the backend's
   grammar, appear at most once, and carry a well-formed value. *)
let parse_spec spec =
  match String.split_on_char ':' spec with
  | [] | [ "" ] -> Error (Printf.sprintf "empty backend spec %S" spec)
  | name :: segments ->
      let* entry =
        match find_opt name with
        | Some e -> Ok e
        | None ->
            Error
              (Printf.sprintf "unknown allocator backend %S (known: %s)" name
                 (String.concat ", " (names ())))
      in
      let* kvs =
        Spec.params spec ~what:"backend" ~name:entry.name
          (spec_params_of entry.name) segments
      in
      Ok (entry, kvs)

(* Validate the values and build the backend.  Defaults fill in anything
   the spec leaves out; [arena_config] (the simulation {!Config.t}
   geometry) seeds arena defaults so a bare ["arena"] spec still follows
   the configured geometry. *)
let backend_of_spec ?arena_config spec =
  let* entry, kvs = parse_spec spec in
  match entry.name with
  | "first-fit" | "best-fit" ->
      let* sbrk_chunk =
        Spec.int_param spec kvs "sbrk" (fun n ->
            if n <= 0 || n mod 8 <> 0 then
              Some (Printf.sprintf "%d is not a positive multiple of 8" n)
            else None)
      in
      let policy =
        if entry.name = "best-fit" then First_fit.Best else First_fit.First
      in
      Ok (First_fit.make_backend ?sbrk_chunk ~policy ())
  | "segfit" ->
      let* classes =
        match List.assoc_opt "slab" kvs with
        | None -> Ok None
        | Some v ->
            let* cells = parse_slab spec v in
            Ok (Some cells)
      in
      Ok (Segfit.make_backend ?classes ())
  | "arena" ->
      let base_config =
        match arena_config with Some c -> c | None -> Arena.default_config
      in
      let* n_arenas = Spec.int_param spec kvs "n" (Spec.within 1 4096) in
      let* arena_size = Spec.int_param spec kvs "chunk" (Spec.within 64 1048576) in
      let* fallback =
        match List.assoc_opt "fallback" kvs with
        | None -> Ok None
        | Some v -> (
            match find_opt v with
            | None ->
                Spec.error spec "parameter fallback: unknown backend %S (known: %s)"
                  v
                  (String.concat ", " (names ()))
            | Some e when e.name = "arena" ->
                Spec.error spec "parameter fallback: must not be arena"
            | Some e -> Ok (Some (e.make ())))
      in
      let n_arenas = Option.value n_arenas ~default:base_config.Arena.n_arenas in
      let arena_size =
        Option.value arena_size ~default:base_config.Arena.arena_size
      in
      Ok (Arena.backend ~config:{ Arena.n_arenas; arena_size } ?fallback ())
  | _ -> Ok (entry.make ?arena_config ())

(* The canonical form: alias resolved, parameters validated, listed in
   grammar order, defaults dropped — so ["seg:slab=16+32"] and
   ["segfit:slab=16+32"] collapse, and a spec that only restates defaults
   collapses to the plain name.  The tuner keys its dedup set on this. *)
let canonical_spec spec =
  let* entry, kvs = parse_spec spec in
  (* surface value errors exactly as backend_of_spec would *)
  let* _ = backend_of_spec spec in
  Ok
    (Spec.canonical entry.name (spec_params_of entry.name) kvs
       ~value:(fun key v -> if key = "fallback" then canonical_name v else v))

let is_spec s = String.contains s ':'

let grammar_markdown () =
  Spec.markdown "backend"
    (List.map (fun e -> (e.name, spec_params_of e.name, "takes no parameters")) !entries)

(* -- the built-in backends --------------------------------------------------------- *)

let () =
  register ~name:"first-fit" ~aliases:[ "ff" ]
    ~doc:"first fit with a roving pointer and boundary-tag coalescing (the paper's baseline)"
    (fun ?arena_config:_ () -> (module First_fit.Backend));
  register ~name:"best-fit" ~aliases:[ "bf" ]
    ~doc:"whole-free-list best fit: tighter packing, longer searches"
    (fun ?arena_config:_ () -> (module First_fit.Best_backend));
  register ~name:"bsd" ~doc:"4.2BSD (Kingsley) power-of-two buckets, never coalesced"
    (fun ?arena_config:_ () -> (module Bsd.Backend));
  register ~name:"segfit" ~aliases:[ "seg" ]
    ~doc:"segregated fit: power-of-two size-class slabs with page recycling (modern design)"
    (fun ?arena_config:_ () -> (module Segfit.Backend));
  register ~name:"arena"
    ~doc:"lifetime-predicting arenas over a first-fit fallback (the paper's allocator)"
    (fun ?arena_config () -> Arena.backend ?config:arena_config ())
