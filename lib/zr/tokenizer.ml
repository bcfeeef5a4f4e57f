(** The Zr tokeniser.

    One pass over the source producing an array of tokens.  Plain [//]
    comments are skipped; the [//$omp] sentinel instead emits a
    {!Token.Pragma_sentinel} token and switches the tokeniser into
    pragma mode, in which the rest of the line is tokenised as regular
    code (the paper's choice B in Figure 1 discussion: reuse the
    existing tokeniser machinery for the pragma's interior) and a
    {!Token.Pragma_end} marks the newline.

    Apart from the tokens, the scan allocates only copies of the
    identifiers shaped like a keyword, to look them up: prefixes and
    operators are compared in place, and tokens go straight into a
    growing array. *)

let sentinel = "//$omp"

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '@'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

(* [text] holds [s] at byte [at]. *)
let has_prefix text n s at =
  let len = String.length s in
  at + len <= n
  &&
  let k = ref 0 in
  while !k < len && text.[at + !k] = s.[!k] do incr k done;
  !k = len

(* Every keyword ("fn" .. "undefined") has 2 to 9 bytes and starts with
   a letter from 'a' to 'w'; other identifiers skip the lookup. *)
let keyword_shaped text start len =
  len >= 2 && len <= 9 && text.[start] >= 'a' && text.[start] <= 'w'

(* The two-character operators, with '\000' standing for "no second
   character" (it completes none of them). *)
let operator2 c c2 =
  match (c, c2) with
  | '.', '*' -> Some Token.Dot_star
  | '.', '{' -> Some Token.Dot_brace
  | '+', '=' -> Some Token.Plus_eq
  | '-', '=' -> Some Token.Minus_eq
  | '*', '=' -> Some Token.Star_eq
  | '/', '=' -> Some Token.Slash_eq
  | '=', '=' -> Some Token.Eq_eq
  | '!', '=' -> Some Token.Bang_eq
  | '<', '=' -> Some Token.Lt_eq
  | '>', '=' -> Some Token.Gt_eq
  | _ -> None

let operator1 = function
  | '(' -> Some Token.L_paren | ')' -> Some Token.R_paren
  | '{' -> Some Token.L_brace | '}' -> Some Token.R_brace
  | '[' -> Some Token.L_bracket | ']' -> Some Token.R_bracket
  | ',' -> Some Token.Comma | ';' -> Some Token.Semicolon
  | ':' -> Some Token.Colon | '.' -> Some Token.Dot
  | '+' -> Some Token.Plus | '-' -> Some Token.Minus
  | '*' -> Some Token.Star | '/' -> Some Token.Slash
  | '%' -> Some Token.Percent
  | '=' -> Some Token.Eq | '<' -> Some Token.Lt | '>' -> Some Token.Gt
  | '!' -> Some Token.Bang | '&' -> Some Token.Amp
  | _ -> None

(* The growing token store. *)
type store = { mutable toks : Token.t array; mutable count : int }

let eof_token = { Token.tag = Token.Eof; start = 0; stop = 0 }

let emit st tag start stop =
  if st.count = Array.length st.toks then begin
    let bigger = Array.make (2 * st.count) eof_token in
    Array.blit st.toks 0 bigger 0 st.count;
    st.toks <- bigger
  end;
  st.toks.(st.count) <- { Token.tag; start; stop };
  st.count <- st.count + 1

let tokenize (src : Source.t) : Token.t array =
  let text = src.Source.text in
  let n = String.length text in
  (* a first guess: Zr runs three to seven bytes per token *)
  let st = { toks = Array.make ((n / 4) + 16) eof_token; count = 0 } in
  let in_pragma = ref false in
  let i = ref 0 in
  while !i < n do
    let c = text.[!i] in
    let start = !i in
    if c = '\n' then begin
      if !in_pragma then begin
        emit st Token.Pragma_end start (start + 1);
        in_pragma := false
      end;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && has_prefix text n sentinel start then begin
      emit st Token.Pragma_sentinel start (start + String.length sentinel);
      in_pragma := true;
      i := !i + String.length sentinel
    end
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '/' then begin
      (* ordinary comment: skip to end of line *)
      while !i < n && text.[!i] <> '\n' do incr i done
    end
    else if is_ident_start c then begin
      while !i < n && is_ident_char text.[!i] do incr i done;
      let len = !i - start in
      let tag =
        if not (keyword_shaped text start len) then Token.Identifier
        else
          match Token.keyword_of_string (String.sub text start len) with
          | Some kw -> kw
          | None -> Token.Identifier
      in
      emit st tag start !i
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
      emit st (if !is_float then Token.Float_literal else Token.Int_literal)
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
      emit st Token.String_literal start !i
    end
    else begin
      (* operators and punctuation, longest match first *)
      let c2 = if !i + 1 < n then text.[!i + 1] else '\000' in
      match operator2 c c2 with
      | Some tag ->
          emit st tag start (start + 2);
          i := !i + 2
      | None -> (
          match operator1 c with
          | Some tag ->
              emit st tag start (start + 1);
              incr i
          | None -> Source.error src start "unexpected character %C" c)
    end
  done;
  if !in_pragma then emit st Token.Pragma_end n n;
  emit st Token.Eof n n;
  Array.sub st.toks 0 st.count

(** Token text, for identifier comparison and literal decoding. *)
let text (src : Source.t) (t : Token.t) =
  Source.slice src ~start:t.Token.start ~stop:t.Token.stop
