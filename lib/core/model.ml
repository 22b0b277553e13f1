type entry = {
  key : Portable.t;
  predicted : bool;
  count : int;
  short_count : int;
  max_lifetime : int;
}

type t = {
  program : string;
  threshold : int;
  rounding : int;
  policy : string;
  clock : int;
  entries : entry list;
}

let magic = "lpmodel"
let version = 1

let looks_like_model s =
  String.length s >= String.length magic
  && String.equal (String.sub s 0 (String.length magic)) magic

(* -- construction from a training run ------------------------------------------- *)

type acc = {
  mutable a_count : int;
  mutable a_short : int;
  mutable a_max : int;
}

let of_training_parts ~(config : Config.t) ~program ~funcs ~clock table
    (predictor : Predictor.t) =
  let by_key : acc Portable.Table.t = Portable.Table.create 256 in
  let order = ref [] in
  Train.fold table () (fun site (stats : Site_stats.t) () ->
      let key = Predictor.portable_of_site predictor funcs site in
      let acc =
        match Portable.Table.find_opt by_key key with
        | Some a -> a
        | None ->
            let a = { a_count = 0; a_short = 0; a_max = 0 } in
            Portable.Table.add by_key key a;
            order := key :: !order;
            a
      in
      acc.a_count <- acc.a_count + stats.count;
      acc.a_short <- acc.a_short + stats.short_count;
      acc.a_max <- max acc.a_max stats.max_lifetime);
  let entries =
    List.rev_map
      (fun key ->
        let a = Portable.Table.find by_key key in
        {
          key;
          predicted = Predictor.predicts_key predictor key;
          count = a.a_count;
          short_count = a.a_short;
          max_lifetime = a.a_max;
        })
      !order
  in
  {
    program;
    threshold = config.short_lived_threshold;
    rounding = config.size_rounding;
    policy = Lp_callchain.Site.policy_to_string config.policy;
    clock;
    entries;
  }

let of_training ~config ~(trace : Lp_trace.Trace.t) table predictor =
  of_training_parts ~config ~program:trace.program ~funcs:trace.funcs
    ~clock:(Lp_trace.Trace.total_bytes trace)
    table predictor

(* -- serialization --------------------------------------------------------------- *)

let to_string t =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "%s %d\n" magic version);
  Buffer.add_string b
    (Printf.sprintf "program %s\n" (Lp_trace.Textio.escape_name t.program));
  Buffer.add_string b
    (Printf.sprintf "config %d %d %s\n" t.threshold t.rounding t.policy);
  Buffer.add_string b (Printf.sprintf "clock %d\n" t.clock);
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "site %d %d %d %d %d" (Bool.to_int e.predicted) e.count
           e.short_count e.max_lifetime e.key.Portable.size);
      List.iter
        (fun f ->
          Buffer.add_char b ' ';
          Buffer.add_string b (Lp_trace.Textio.escape_name f))
        e.key.Portable.chain;
      Buffer.add_char b '\n')
    t.entries;
  Buffer.add_string b "end\n";
  Buffer.contents b

let save path t = Out_channel.with_open_bin path (fun oc -> output_string oc (to_string t))

let of_string ?(name = "<model>") s =
  let fail lineno msg =
    failwith (Printf.sprintf "Model.of_string: %s:%d: %s" name lineno msg)
  in
  let int lineno ~field v =
    match int_of_string_opt v with
    | Some n -> n
    | None ->
        fail lineno (Printf.sprintf "field %s: %S is not an integer" field v)
  in
  let program = ref "?" in
  let threshold = ref 0 and rounding = ref 1 and policy = ref "?" in
  let clock = ref 0 in
  let entries = ref [] in
  let seen_magic = ref false and finished = ref false in
  let parse lineno line =
    match String.split_on_char ' ' (String.trim line) with
    | [ "" ] -> ()
    | m :: v :: _ when (not !seen_magic) && m = magic ->
        if int lineno ~field:"version" v <> version then
          fail lineno (Printf.sprintf "unsupported model version %s" v);
        seen_magic := true
    | _ when not !seen_magic -> fail lineno "not a model file (missing lpmodel header)"
    | [ "program"; p ] -> program := Lp_trace.Textio.unescape p
    | [ "config"; th; r; p ] ->
        threshold := int lineno ~field:"threshold" th;
        rounding := int lineno ~field:"rounding" r;
        policy := p
    | [ "clock"; c ] -> clock := int lineno ~field:"clock" c
    | "site" :: p :: c :: sc :: ml :: size :: funcs ->
        let predicted =
          match p with
          | "0" -> false
          | "1" -> true
          | _ -> fail lineno (Printf.sprintf "field predicted: %S is not 0/1" p)
        in
        entries :=
          {
            key =
              {
                Portable.chain = List.map Lp_trace.Textio.unescape funcs;
                size = int lineno ~field:"size" size;
              };
            predicted;
            count = int lineno ~field:"count" c;
            short_count = int lineno ~field:"short-count" sc;
            max_lifetime = int lineno ~field:"max-lifetime" ml;
          }
          :: !entries
    | [ "end" ] -> finished := true
    | _ -> fail lineno (Printf.sprintf "unrecognised line %S" line)
  in
  List.iteri
    (fun i line -> if not !finished then parse (i + 1) line)
    (String.split_on_char '\n' s);
  if not !finished then fail 0 "missing 'end' line";
  {
    program = !program;
    threshold = !threshold;
    rounding = !rounding;
    policy = !policy;
    clock = !clock;
    entries = List.rev !entries;
  }

let load path =
  of_string ~name:path (In_channel.with_open_bin path In_channel.input_all)

let predictor ~config t =
  Predictor.of_keys ~config
    (List.filter_map (fun e -> if e.predicted then Some e.key else None) t.entries)

(* -- introspection ---------------------------------------------------------------- *)

type index = entry Portable.Table.t

let index t =
  let ix : index = Portable.Table.create (max 16 (List.length t.entries)) in
  (* duplicate keys cannot arise from [of_training_parts], but a hand-
     edited model could carry them; keep the first entry, like the
     first-appearance order the trainer preserves *)
  List.iter
    (fun e ->
      if not (Portable.Table.mem ix e.key) then Portable.Table.add ix e.key e)
    t.entries;
  ix

let find_key ix key = Portable.Table.find_opt ix key

let site_policy t = Lp_callchain.Site.policy_of_string t.policy

