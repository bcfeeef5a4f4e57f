(* The tokeniser as it stood before it was rewritten to compare in place
   and store tokens straight into an array, kept verbatim below as the
   reference of the differential property in test_tokenizer.ml. *)

open Zr

(** The Zr tokeniser.

    One pass over the source producing an array of tokens.  Plain [//]
    comments are skipped; the [//$omp] sentinel instead emits a
    {!Token.Pragma_sentinel} token and switches the tokeniser into
    pragma mode, in which the rest of the line is tokenised as regular
    code (the paper's choice B in Figure 1 discussion: reuse the
    existing tokeniser machinery for the pragma's interior) and a
    {!Token.Pragma_end} marks the newline. *)

let sentinel = "//$omp"

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '@'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let tokenize (src : Source.t) : Token.t array =
  let text = src.Source.text in
  let n = String.length text in
  let tokens = ref [] in
  let emit tag start stop = tokens := { Token.tag; start; stop } :: !tokens in
  let in_pragma = ref false in
  let i = ref 0 in
  let starts_with s at =
    at + String.length s <= n && String.sub text at (String.length s) = s
  in
  while !i < n do
    let c = text.[!i] in
    let start = !i in
    if c = '\n' then begin
      if !in_pragma then begin
        emit Token.Pragma_end start (start + 1);
        in_pragma := false
      end;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if starts_with sentinel !i then begin
      emit Token.Pragma_sentinel start (start + String.length sentinel);
      in_pragma := true;
      i := !i + String.length sentinel
    end
    else if starts_with "//" !i then begin
      (* ordinary comment: skip to end of line *)
      while !i < n && text.[!i] <> '\n' do incr i done
    end
    else if is_ident_start c then begin
      while !i < n && is_ident_char text.[!i] do incr i done;
      let s = String.sub text start (!i - start) in
      match Token.keyword_of_string s with
      | Some kw -> emit kw start !i
      | None -> emit Token.Identifier start !i
    end
    else if is_digit c then begin
      let is_float = ref false in
      while !i < n && (is_digit text.[!i] || text.[!i] = '_') do incr i done;
      if !i < n && text.[!i] = '.'
         && !i + 1 < n && is_digit text.[!i + 1] then begin
        is_float := true;
        incr i;
        while !i < n && is_digit text.[!i] do incr i done
      end;
      if !i < n && (text.[!i] = 'e' || text.[!i] = 'E') then begin
        let j = !i + 1 in
        let j = if j < n && (text.[j] = '+' || text.[j] = '-') then j + 1 else j in
        if j < n && is_digit text.[j] then begin
          is_float := true;
          i := j;
          while !i < n && is_digit text.[!i] do incr i done
        end
      end;
      emit (if !is_float then Token.Float_literal else Token.Int_literal)
        start !i
    end
    else if c = '"' then begin
      incr i;
      while !i < n && text.[!i] <> '"' && text.[!i] <> '\n' do
        if text.[!i] = '\\' && !i + 1 < n then i := !i + 2 else incr i
      done;
      if !i >= n || text.[!i] <> '"' then
        Source.error src start "unterminated string literal";
      incr i;
      emit Token.String_literal start !i
    end
    else begin
      (* operators and punctuation, longest match first *)
      let two = if !i + 1 < n then String.sub text !i 2 else "" in
      let tag2 =
        match two with
        | ".*" -> Some Token.Dot_star
        | ".{" -> Some Token.Dot_brace
        | "+=" -> Some Token.Plus_eq
        | "-=" -> Some Token.Minus_eq
        | "*=" -> Some Token.Star_eq
        | "/=" -> Some Token.Slash_eq
        | "==" -> Some Token.Eq_eq
        | "!=" -> Some Token.Bang_eq
        | "<=" -> Some Token.Lt_eq
        | ">=" -> Some Token.Gt_eq
        | _ -> None
      in
      match tag2 with
      | Some tag ->
          emit tag start (start + 2);
          i := !i + 2
      | None ->
          let tag1 =
            match c with
            | '(' -> Token.L_paren | ')' -> Token.R_paren
            | '{' -> Token.L_brace | '}' -> Token.R_brace
            | '[' -> Token.L_bracket | ']' -> Token.R_bracket
            | ',' -> Token.Comma | ';' -> Token.Semicolon
            | ':' -> Token.Colon | '.' -> Token.Dot
            | '+' -> Token.Plus | '-' -> Token.Minus
            | '*' -> Token.Star | '/' -> Token.Slash
            | '%' -> Token.Percent
            | '=' -> Token.Eq | '<' -> Token.Lt | '>' -> Token.Gt
            | '!' -> Token.Bang | '&' -> Token.Amp
            | _ -> Source.error src start "unexpected character %C" c
          in
          emit tag1 start (start + 1);
          incr i
    end
  done;
  if !in_pragma then emit Token.Pragma_end n n;
  emit Token.Eof n n;
  Array.of_list (List.rev !tokens)

(** Token text, for identifier comparison and literal decoding. *)
let text (src : Source.t) (t : Token.t) =
  Source.slice src ~start:t.Token.start ~stop:t.Token.stop
