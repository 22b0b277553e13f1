type param = {
  key : string;
  grammar : string;
  param_doc : string;
  default : string;
}

let error spec fmt =
  Printf.ksprintf
    (fun msg -> Error (Printf.sprintf "%s (in spec %S)" msg spec))
    fmt

let ( let* ) = Result.bind

let params spec ~what ~name grammar segments =
  List.fold_left
    (fun acc seg ->
      let* acc = acc in
      match String.index_opt seg '=' with
      | None -> error spec "bad parameter %S: expected key=value" seg
      | Some i ->
          let key = String.sub seg 0 i in
          let value = String.sub seg (i + 1) (String.length seg - i - 1) in
          if not (List.exists (fun p -> p.key = key) grammar) then
            if grammar = [] then error spec "%s %s takes no parameters" what name
            else
              error spec "unknown parameter %S for %s (valid: %s)" key name
                (String.concat ", " (List.map (fun p -> p.key) grammar))
          else if List.mem_assoc key acc then
            error spec "duplicate parameter %S" key
          else Ok (acc @ [ (key, value) ]))
    (Ok []) segments

let int_value spec ~key v =
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> error spec "parameter %s: %S is not an integer" key v

let int_param spec kvs key check =
  match List.assoc_opt key kvs with
  | None -> Ok None
  | Some v -> (
      let* n = int_value spec ~key v in
      match check n with
      | None -> Ok (Some n)
      | Some why -> error spec "parameter %s: %s" key why)

let within lo hi n =
  if n < lo || n > hi then Some (Printf.sprintf "%d outside [%d, %d]" n lo hi)
  else None

let positive n =
  if n < 1 then Some (Printf.sprintf "%d is not positive" n) else None

let canonical ?(value = fun _ v -> v) name grammar kvs =
  let kept =
    List.filter_map
      (fun p ->
        match List.assoc_opt p.key kvs with
        | None -> None
        | Some v ->
            let v =
              match int_of_string_opt v with
              | Some n -> string_of_int n
              | None -> value p.key v
            in
            if v = p.default then None else Some (Printf.sprintf "%s=%s" p.key v))
      grammar
  in
  String.concat ":" (name :: kept)

let markdown column entries =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "| %s | parameter | value | default | meaning |\n|---|---|---|---|---|\n"
       column);
  List.iter
    (fun (name, grammar, doc) ->
      match grammar with
      | [] ->
          Buffer.add_string buf
            (Printf.sprintf "| `%s` | — | — | — | %s |\n" name doc)
      | grammar ->
          List.iter
            (fun p ->
              Buffer.add_string buf
                (Printf.sprintf "| `%s` | `%s` | `%s` | `%s` | %s |\n" name
                   p.key p.grammar p.default p.param_doc))
            grammar)
    entries;
  Buffer.contents buf
