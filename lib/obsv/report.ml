type row = {
  id : string;
  class_name : string;
  outcome : string;
  detail : string;
  signature : string;
  elapsed_ms : float;
  attempts : int;
  flaky : bool;
  phase_ms : (string * float) list;
}

let esc s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let fnum v = Printf.sprintf "%g" v

(* Outcome identity: fixed order, status colors reserved for state
   (startup = detected cleanly, crashed = took the harness down),
   series blue for functional detection, muted for n/a. *)
let outcome_order = [ "startup"; "functional"; "ignored"; "crashed"; "n/a" ]

let outcome_class o =
  match o with
  | "startup" -> "o-startup"
  | "functional" -> "o-functional"
  | "ignored" -> "o-ignored"
  | "crashed" -> "o-crashed"
  | _ -> "o-na"

let count pred rows = List.length (List.filter pred rows)

let distinct_signatures rows =
  List.length (List.sort_uniq compare (List.map (fun r -> r.signature) rows))

(* ---- SVG helpers (no scripts: charts are static markup) ---- *)

let svg_bars ?(width = 640) ?(height = 150) (data : (string * float) list) =
  let n = List.length data in
  let vmax = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 data in
  if n = 0 || vmax <= 0.0 then "<p class=\"muted\">no data</p>"
  else begin
    let top = 16 and bottom = 18 in
    let plot_h = height - top - bottom in
    let bw = Float.of_int (width - (2 * (n - 1))) /. Float.of_int n in
    let b = Buffer.create 1024 in
    Buffer.add_string b
      (Printf.sprintf
         "<svg viewBox=\"0 0 %d %d\" width=\"%d\" height=\"%d\" role=\"img\">" width height width
         height);
    (* recessive gridline at the max level *)
    Buffer.add_string b
      (Printf.sprintf "<line x1=\"0\" y1=\"%d\" x2=\"%d\" y2=\"%d\" class=\"grid\"/>" top width top);
    let label_every = max 1 (n / 8) in
    List.iteri
      (fun i (label, v) ->
        let x = Float.of_int i *. (bw +. 2.0) in
        let h = Float.max (if v > 0.0 then 2.0 else 0.0) (v /. vmax *. Float.of_int plot_h) in
        let y = Float.of_int (top + plot_h) -. h in
        if v > 0.0 then
          Buffer.add_string b
            (Printf.sprintf
               "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" rx=\"2\" class=\"bar\"/>"
               x y bw h);
        if v = vmax then
          Buffer.add_string b
            (Printf.sprintf "<text x=\"%.1f\" y=\"%.1f\" class=\"val\">%s</text>"
               (x +. (bw /. 2.0)) (y -. 4.0) (fnum v));
        if i mod label_every = 0 then
          Buffer.add_string b
            (Printf.sprintf "<text x=\"%.1f\" y=\"%d\" class=\"tick\">%s</text>"
               (x +. (bw /. 2.0)) (height - 4) (esc label)))
      data;
    Buffer.add_string b "</svg>";
    Buffer.contents b
  end

let svg_frontier ?(width = 640) ?(height = 150) (points : (int * int) list) =
  match points with
  | [] -> "<p class=\"muted\">no data</p>"
  | _ ->
    let xmax = List.fold_left (fun acc (x, _) -> max acc x) 1 points in
    let ymax = List.fold_left (fun acc (_, y) -> max acc y) 1 points in
    let top = 16 and bottom = 18 in
    let plot_h = Float.of_int (height - top - bottom) in
    let px x = Float.of_int x /. Float.of_int xmax *. Float.of_int (width - 40) in
    let py y = Float.of_int (top) +. plot_h -. (Float.of_int y /. Float.of_int ymax *. plot_h) in
    let pts =
      String.concat " " (List.map (fun (x, y) -> Printf.sprintf "%.1f,%.1f" (px x) (py y)) points)
    in
    let b = Buffer.create 512 in
    Buffer.add_string b
      (Printf.sprintf "<svg viewBox=\"0 0 %d %d\" width=\"%d\" height=\"%d\" role=\"img\">" width
         height width height);
    Buffer.add_string b
      (Printf.sprintf "<line x1=\"0\" y1=\"%d\" x2=\"%d\" y2=\"%d\" class=\"grid\"/>" top width top);
    Buffer.add_string b
      (Printf.sprintf
         "<polyline points=\"%s\" fill=\"none\" class=\"line\" stroke-width=\"2\"/>" pts);
    let lx, ly = (px xmax, py ymax) in
    Buffer.add_string b
      (Printf.sprintf "<text x=\"%.1f\" y=\"%.1f\" class=\"val\">%d</text>" (lx +. 6.0) ly ymax);
    Buffer.add_string b
      (Printf.sprintf "<text x=\"4\" y=\"%d\" class=\"tick\" text-anchor=\"start\">scenario %d</text>"
         (height - 4) xmax);
    Buffer.add_string b "</svg>";
    Buffer.contents b

(* Log-2 latency buckets shared with Metrics; trim empty tails for display. *)
let bucketize values =
  let bounds = Metrics.default_ms_buckets in
  let counts = Array.make (List.length bounds + 1) 0 in
  List.iter
    (fun v ->
      let rec place i = function
        | [] -> counts.(i) <- counts.(i) + 1
        | bound :: rest -> if v <= bound then counts.(i) <- counts.(i) + 1 else place (i + 1) rest
      in
      place 0 bounds)
    values;
  let labeled =
    List.mapi (fun i bound -> (Printf.sprintf "\xe2\x89\xa4%s" (fnum bound), Float.of_int counts.(i))) bounds
    @ [ (Printf.sprintf ">%.3gs" (List.nth bounds (List.length bounds - 1) /. 1000.), Float.of_int counts.(List.length bounds)) ]
  in
  (* keep the contiguous run from the first to the last non-empty bucket *)
  let arr = Array.of_list labeled in
  let n = Array.length arr in
  let first = ref n and last = ref (-1) in
  Array.iteri (fun i (_, v) -> if v > 0.0 then (if !first = n then first := i; last := i)) arr;
  if !last < 0 then [] else Array.to_list (Array.sub arr !first (!last - !first + 1))

(* ---- sections ---- *)

let tile label value sub =
  Printf.sprintf
    "<div class=\"tile\"><div class=\"tile-value\">%s</div><div class=\"tile-label\">%s</div>%s</div>"
    value (esc label)
    (if sub = "" then "" else Printf.sprintf "<div class=\"tile-sub\">%s</div>" (esc sub))

let legend =
  let item o name =
    Printf.sprintf "<span class=\"key\"><span class=\"swatch %s\"></span>%s</span>" (outcome_class o)
      name
  in
  "<p class=\"legend\">"
  ^ String.concat ""
      [
        item "startup" "startup detection";
        item "functional" "functional detection";
        item "ignored" "ignored";
        item "crashed" "crashed";
        item "n/a" "not applicable";
      ]
  ^ "</p>"

let stacked_bar counts total =
  if total = 0 then ""
  else
    let seg o =
      let c = List.assoc o counts in
      if c = 0 then ""
      else
        Printf.sprintf
          "<span class=\"seg %s\" style=\"flex-grow:%d\" title=\"%s: %d\"></span>" (outcome_class o)
          c (esc o) c
    in
    "<div class=\"stack\">" ^ String.concat "" (List.map seg outcome_order) ^ "</div>"

let class_table rows =
  let classes = List.sort_uniq compare (List.map (fun r -> r.class_name) rows) in
  let row_html cls =
    let mine = List.filter (fun r -> r.class_name = cls) rows in
    let counts = List.map (fun o -> (o, count (fun r -> r.outcome = o) mine)) outcome_order in
    let total = List.length mine in
    let na = List.assoc "n/a" counts in
    let detected =
      List.assoc "startup" counts + List.assoc "functional" counts + List.assoc "crashed" counts
    in
    let rate = if total - na = 0 then 0.0 else 100.0 *. Float.of_int detected /. Float.of_int (total - na) in
    Printf.sprintf
      "<tr><td class=\"mono\">%s</td><td class=\"num\">%d</td>%s<td class=\"num\">%.0f%%</td><td class=\"barcell\">%s</td></tr>"
      (esc cls) total
      (String.concat ""
         (List.map (fun (_, c) -> Printf.sprintf "<td class=\"num\">%d</td>" c) counts))
      rate (stacked_bar counts total)
  in
  "<table><thead><tr><th>class</th><th class=\"num\">total</th><th class=\"num\">startup</th><th \
   class=\"num\">functional</th><th class=\"num\">ignored</th><th class=\"num\">crashed</th><th \
   class=\"num\">n/a</th><th class=\"num\">detected</th><th></th></tr></thead><tbody>"
  ^ String.concat "" (List.map row_html classes)
  ^ "</tbody></table>"

let latency_section rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "<h3>End-to-end scenario latency (ms)</h3>";
  Buffer.add_string b (svg_bars (bucketize (List.map (fun r -> r.elapsed_ms) rows)));
  let phases =
    List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.phase_ms) rows)
  in
  let ordered = List.filter (fun p -> List.mem p phases) (List.map Span.label Span.all) in
  List.iter
    (fun phase ->
      let vals = List.filter_map (fun r -> List.assoc_opt phase r.phase_ms) rows in
      if vals <> [] then begin
        Buffer.add_string b (Printf.sprintf "<h3>Phase: %s (ms)</h3>" (esc phase));
        Buffer.add_string b (svg_bars (bucketize vals))
      end)
    ordered;
  if ordered = [] then
    Buffer.add_string b
      "<p class=\"muted\">no per-phase timings in this journal \xe2\x80\x94 run with \
       <code>--trace</code> or <code>--metrics</code> to record them (journal v2.1).</p>";
  Buffer.contents b

let frontier_section rows =
  let seen = Hashtbl.create 64 in
  let points =
    List.mapi
      (fun i r ->
        if not (Hashtbl.mem seen r.signature) then Hashtbl.add seen r.signature ();
        (i + 1, Hashtbl.length seen))
      rows
  in
  svg_frontier ((0, 0) :: points)

let metric_total samples name =
  List.fold_left
    (fun acc (s : Metrics.sample) -> if s.sample_name = name then acc +. s.value else acc)
    0.0 samples

let metric_cells samples name =
  List.filter_map
    (fun (s : Metrics.sample) ->
      if s.sample_name = name then
        Some (String.concat " " (List.map (fun (_, v) -> v) s.labels), s.value)
      else None)
    samples

let hardening_section rows metrics_text =
  let b = Buffer.create 1024 in
  let crashed = List.filter (fun r -> r.outcome = "crashed") rows in
  let flaky = count (fun r -> r.flaky) rows in
  let retries = List.fold_left (fun acc r -> acc + (r.attempts - 1)) 0 rows in
  Buffer.add_string b
    (Printf.sprintf "<p>%d crashed scenario(s), %d flaky (passed on retry), %d retry attempt(s).</p>"
       (List.length crashed) flaky retries);
  (if crashed <> [] then begin
     let tbl = Hashtbl.create 16 in
     List.iter
       (fun r ->
         let n, example = try Hashtbl.find tbl r.signature with Not_found -> (0, r.id) in
         Hashtbl.replace tbl r.signature (n + 1, if r.id < example then r.id else example))
       crashed;
     let clusters =
       Hashtbl.fold (fun sig_ (n, ex) acc -> (n, sig_, ex) :: acc) tbl []
       |> List.sort (fun (n1, s1, _) (n2, s2, _) ->
              match compare n2 n1 with 0 -> compare s1 s2 | c -> c)
     in
     Buffer.add_string b
       "<table><thead><tr><th class=\"num\">count</th><th>crash signature</th><th>example</th></tr></thead><tbody>";
     List.iteri
       (fun i (n, sig_, ex) ->
         if i < 12 then
           Buffer.add_string b
             (Printf.sprintf
                "<tr><td class=\"num\">%d</td><td class=\"mono\">%s</td><td class=\"mono\">%s</td></tr>"
                n (esc sig_) (esc ex)))
       clusters;
     Buffer.add_string b "</tbody></table>"
   end);
  (match metrics_text with
  | None -> ()
  | Some text -> (
    match Metrics.parse_exposition text with
    | Error e -> Buffer.add_string b (Printf.sprintf "<p class=\"muted\">metrics unreadable: %s</p>" (esc e))
    | Ok samples ->
      let skipped = metric_total samples "conferr_breaker_skipped_total" in
      let trips = metric_cells samples "conferr_breaker_trips_total" in
      let chaos = metric_cells samples "conferr_chaos_injections_total" in
      if skipped > 0.0 || trips <> [] then begin
        Buffer.add_string b
          (Printf.sprintf "<p>Circuit breaker: %s scenario(s) skipped while open.</p>" (fnum skipped));
        List.iter
          (fun (bucket, v) ->
            Buffer.add_string b
              (Printf.sprintf "<p class=\"mono indent\">tripped %s \xc3\x97 %s</p>" (fnum v) (esc bucket)))
          trips
      end;
      if chaos <> [] then begin
        Buffer.add_string b "<p>Chaos injections:</p>";
        List.iter
          (fun (fault, v) ->
            Buffer.add_string b
              (Printf.sprintf "<p class=\"mono indent\">%s \xc3\x97 %s</p>" (esc fault) (fnum v)))
          chaos
      end));
  Buffer.contents b

type gap_row = {
  gap_id : string;
  gap_class : string;
  gap_static : string;
  gap_outcome : string;
  gap_kind : string;
  gap_detail : string;
}

let gap_kind_class = function
  | "silent-acceptance" -> "o-crashed"
  | "late-failure" -> "o-ignored"
  | "over-strict" -> "o-functional"
  | _ -> "o-na"

let gaps_section gaps =
  let b = Buffer.create 2048 in
  let is_gap g =
    match g.gap_kind with
    | "silent-acceptance" | "late-failure" | "over-strict" -> true
    | _ -> false
  in
  let kcount k = count (fun g -> g.gap_kind = k) gaps in
  Buffer.add_string b "<section class=\"tiles\">";
  Buffer.add_string b
    (tile "silent acceptance" (string_of_int (kcount "silent-acceptance"))
       "lint error, SUT started fine");
  Buffer.add_string b
    (tile "late failure" (string_of_int (kcount "late-failure"))
       "lint error, functional test failed");
  Buffer.add_string b
    (tile "over-strict" (string_of_int (kcount "over-strict"))
       "lint clean, SUT rejected");
  Buffer.add_string b
    (tile "agreement"
       (string_of_int (kcount "agree-detected" + kcount "agree-clean"))
       "static and dynamic verdicts match");
  Buffer.add_string b "</section>";
  let disagreements = List.filter is_gap gaps in
  (if disagreements = [] then
     Buffer.add_string b
       "<p class=\"muted\">no validator gaps: the static verdict matched the \
        dynamic outcome on every replayed mutant.</p>"
   else begin
     Buffer.add_string b
       "<table><thead><tr><th>scenario</th><th>class</th><th>static</th><th>dynamic</th><th>gap</th><th>detail</th></tr></thead><tbody>";
     let shown = 40 in
     List.iteri
       (fun i g ->
         if i < shown then
           Buffer.add_string b
             (Printf.sprintf
                "<tr><td class=\"mono\">%s</td><td class=\"mono\">%s</td><td>%s</td><td>%s</td><td><span class=\"key\"><span class=\"swatch %s\"></span>%s</span></td><td class=\"mono\">%s</td></tr>"
                (esc g.gap_id) (esc g.gap_class) (esc g.gap_static)
                (esc g.gap_outcome)
                (gap_kind_class g.gap_kind)
                (esc g.gap_kind) (esc g.gap_detail)))
       disagreements;
     Buffer.add_string b "</tbody></table>";
     if List.length disagreements > shown then
       Buffer.add_string b
         (Printf.sprintf
            "<p class=\"muted\">%d further disagreement(s) not shown \xe2\x80\x94 use <code>conferr gaps --format json</code> for the full list.</p>"
            (List.length disagreements - shown))
   end);
  Buffer.contents b

type infer_row = {
  inf_id : string;
  inf_kind : string;
  inf_target : string;
  inf_doc : string;
  inf_support : int;
  inf_confidence : float;
  inf_verdict : string;
}

let infer_verdict_class = function
  | "recovered" -> "o-startup"
  | "missed-by-hand" -> "o-ignored"
  | "missed-by-inference" -> "o-na"
  | "contradicted" -> "o-crashed"
  | _ -> "o-functional"

let infer_section infs =
  let b = Buffer.create 2048 in
  let vcount v = count (fun r -> r.inf_verdict = v) infs in
  Buffer.add_string b "<section class=\"tiles\">";
  Buffer.add_string b
    (tile "recovered" (string_of_int (vcount "recovered"))
       "hand-written rules re-derived from journals");
  Buffer.add_string b
    (tile "missed by hand" (string_of_int (vcount "missed-by-hand"))
       "mined candidates with no hand-written rule");
  Buffer.add_string b
    (tile "missed by inference" (string_of_int (vcount "missed-by-inference"))
       "hand-written rules the journals never exercised");
  Buffer.add_string b
    (tile "contradicted" (string_of_int (vcount "contradicted"))
       "hand-written rules the evidence refutes");
  Buffer.add_string b "</section>";
  if infs = [] then
    Buffer.add_string b
      "<p class=\"muted\">no inferred candidates: the journal holds no \
       usable evidence at the current thresholds.</p>"
  else begin
    Buffer.add_string b
      "<table><thead><tr><th>id</th><th>kind</th><th>target</th><th class=\"num\">support</th><th class=\"num\">confidence</th><th>verdict</th><th>constraint</th></tr></thead><tbody>";
    let shown = 40 in
    List.iteri
      (fun i r ->
        if i < shown then
          Buffer.add_string b
            (Printf.sprintf
               "<tr><td class=\"mono\">%s</td><td>%s</td><td class=\"mono\">%s</td><td class=\"num\">%d</td><td class=\"num\">%.2f</td><td><span class=\"key\"><span class=\"swatch %s\"></span>%s</span></td><td class=\"mono\">%s</td></tr>"
               (esc r.inf_id) (esc r.inf_kind) (esc r.inf_target)
               r.inf_support r.inf_confidence
               (infer_verdict_class r.inf_verdict)
               (esc r.inf_verdict) (esc r.inf_doc)))
      infs;
    Buffer.add_string b "</tbody></table>";
    if List.length infs > shown then
      Buffer.add_string b
        (Printf.sprintf
           "<p class=\"muted\">%d further row(s) not shown \xe2\x80\x94 use \
            <code>conferr infer --format json</code> for the full list.</p>"
           (List.length infs - shown))
  end;
  Buffer.contents b

type repair_row = {
  rep_id : string;
  rep_class : string;
  rep_status : string;
  rep_distance : int;
  rep_edits : int;
  rep_stock : bool;
  rep_detail : string;
}

let repair_status_class = function
  | "repaired" -> "o-startup"
  | "already-clean" -> "o-functional"
  | "unrepairable" -> "o-crashed"
  | _ -> "o-na"

let repairs_section reps =
  let b = Buffer.create 2048 in
  let scount s = count (fun r -> r.rep_status = s) reps in
  Buffer.add_string b "<section class=\"tiles\">";
  Buffer.add_string b
    (tile "repaired" (string_of_int (scount "repaired"))
       "lint-clean and SUT-accepted after the edits");
  Buffer.add_string b
    (tile "already clean" (string_of_int (scount "already-clean"))
       "no repair needed");
  Buffer.add_string b
    (tile "unrepairable" (string_of_int (scount "unrepairable"))
       "no candidate passed validation");
  Buffer.add_string b
    (tile "back to stock"
       (string_of_int (count (fun r -> r.rep_stock) reps))
       "repaired set equals the stock configuration");
  Buffer.add_string b "</section>";
  if reps = [] then
    Buffer.add_string b "<p class=\"muted\">no repair targets.</p>"
  else begin
    Buffer.add_string b
      "<table><thead><tr><th>target</th><th>class</th><th>status</th><th \
       class=\"num\">edits</th><th class=\"num\">distance</th><th>stock</th><th>repair</th></tr></thead><tbody>";
    let shown = 40 in
    List.iteri
      (fun i r ->
        if i < shown then
          Buffer.add_string b
            (Printf.sprintf
               "<tr><td class=\"mono\">%s</td><td class=\"mono\">%s</td><td><span class=\"key\"><span class=\"swatch %s\"></span>%s</span></td><td class=\"num\">%d</td><td class=\"num\">%d</td><td>%s</td><td class=\"mono\">%s</td></tr>"
               (esc r.rep_id) (esc r.rep_class)
               (repair_status_class r.rep_status)
               (esc r.rep_status) r.rep_edits r.rep_distance
               (if r.rep_stock then "yes" else "\xe2\x80\x94")
               (esc r.rep_detail)))
      reps;
    Buffer.add_string b "</tbody></table>";
    if List.length reps > shown then
      Buffer.add_string b
        (Printf.sprintf
           "<p class=\"muted\">%d further target(s) not shown \xe2\x80\x94 use \
            <code>conferr repair --format json</code> for the full list.</p>"
           (List.length reps - shown))
  end;
  Buffer.contents b

type analysis_row = {
  an_rule : string;
  an_severity : string;
  an_file : string;
  an_address : string;
  an_message : string;
  an_related : string;
}

let analysis_severity_class = function
  | "error" -> "o-crashed"
  | "warning" -> "o-ignored"
  | _ -> "o-functional"

let analysis_section ans =
  let b = Buffer.create 2048 in
  let scount s = count (fun r -> r.an_severity = s) ans in
  Buffer.add_string b "<section class=\"tiles\">";
  Buffer.add_string b
    (tile "findings" (string_of_int (List.length ans))
       "corpus-level (dataflow) findings");
  Buffer.add_string b
    (tile "errors" (string_of_int (scount "error")) "relation violations");
  Buffer.add_string b
    (tile "warnings" (string_of_int (scount "warning"))
       "shadowing, ordering, graph");
  Buffer.add_string b
    (tile "info" (string_of_int (scount "info")) "silent-default taint");
  Buffer.add_string b "</section>";
  if ans = [] then
    Buffer.add_string b
      "<p class=\"muted\">no dataflow findings: every relation holds and no \
       written value is masked.</p>"
  else begin
    Buffer.add_string b
      "<table><thead><tr><th>rule</th><th>severity</th><th>site</th><th>finding</th><th>related</th></tr></thead><tbody>";
    let shown = 40 in
    List.iteri
      (fun i r ->
        if i < shown then
          Buffer.add_string b
            (Printf.sprintf
               "<tr><td class=\"mono\">%s</td><td><span class=\"key\"><span \
                class=\"swatch %s\"></span>%s</span></td><td \
                class=\"mono\">%s:%s</td><td class=\"mono\">%s</td><td \
                class=\"mono\">%s</td></tr>"
               (esc r.an_rule)
               (analysis_severity_class r.an_severity)
               (esc r.an_severity) (esc r.an_file) (esc r.an_address)
               (esc r.an_message) (esc r.an_related)))
      ans;
    Buffer.add_string b "</tbody></table>";
    if List.length ans > shown then
      Buffer.add_string b
        (Printf.sprintf
           "<p class=\"muted\">%d further finding(s) not shown \xe2\x80\x94 use \
            <code>conferr analyze --format json</code> for the full list.</p>"
           (List.length ans - shown))
  end;
  Buffer.contents b

let css =
  {|
:root {
  --surface: #fcfcfb; --ink: #1a1a19; --muted: #898781; --grid: #e1e0d9;
  --card: #ffffff; --series: #2a78d6;
  --good: #0ca30c; --serious: #ec835a; --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --ink: #f1efe9; --muted: #898781; --grid: #2c2c2a;
    --card: #222220; --series: #3987e5;
    --good: #2fb52f; --serious: #ec835a; --critical: #e25f5f;
  }
}
* { box-sizing: border-box; }
body { margin: 0 auto; padding: 24px; max-width: 960px; background: var(--surface);
       color: var(--ink); font: 14px/1.5 system-ui, sans-serif; }
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; }
h3 { font-size: 13px; margin: 16px 0 4px; color: var(--muted); font-weight: 600; }
.sub, .muted { color: var(--muted); }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; margin-top: 16px; }
.tile { background: var(--card); border: 1px solid var(--grid); border-radius: 8px;
        padding: 10px 14px; min-width: 120px; }
.tile-value { font-size: 22px; font-weight: 650; font-variant-numeric: tabular-nums; }
.tile-label { color: var(--muted); font-size: 12px; }
.tile-sub { color: var(--muted); font-size: 11px; }
table { border-collapse: collapse; width: 100%; margin: 8px 0; }
th, td { text-align: left; padding: 4px 8px; border-bottom: 1px solid var(--grid); }
th { color: var(--muted); font-weight: 600; font-size: 12px; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.mono { font-family: ui-monospace, monospace; font-size: 12px; }
.indent { margin: 0 0 0 16px; }
.barcell { min-width: 140px; }
.stack { display: flex; gap: 2px; height: 10px; }
.seg { border-radius: 2px; min-width: 2px; }
.o-startup { background: var(--good); }
.o-functional { background: var(--series); }
.o-ignored { background: var(--serious); }
.o-crashed { background: var(--critical); }
.o-na { background: var(--muted); }
.legend { display: flex; flex-wrap: wrap; gap: 14px; color: var(--muted); font-size: 12px; }
.key { display: inline-flex; align-items: center; gap: 5px; }
.swatch { width: 10px; height: 10px; border-radius: 2px; display: inline-block; }
svg { display: block; margin: 4px 0 12px; max-width: 100%; }
svg .bar { fill: var(--series); }
svg .line { stroke: var(--series); }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg text { fill: var(--muted); font: 10px system-ui, sans-serif; text-anchor: middle; }
svg .val { fill: var(--ink); font-weight: 600; }
details { margin: 24px 0; }
pre { background: var(--card); border: 1px solid var(--grid); border-radius: 8px;
      padding: 12px; overflow-x: auto; font-size: 11px; }
code { font-family: ui-monospace, monospace; }
|}

let html ~title ~rows ?metrics_text ?gaps ?infer ?repairs ?analysis () =
  let total = List.length rows in
  let na = count (fun r -> r.outcome = "n/a") rows in
  let detected =
    count (fun r -> r.outcome = "startup" || r.outcome = "functional" || r.outcome = "crashed") rows
  in
  let rate =
    if total - na = 0 then 0.0 else 100.0 *. Float.of_int detected /. Float.of_int (total - na)
  in
  let wall = List.fold_left (fun acc r -> acc +. r.elapsed_ms) 0.0 rows in
  let b = Buffer.create 16384 in
  Buffer.add_string b "<!doctype html><html lang=\"en\"><head><meta charset=\"utf-8\">";
  Buffer.add_string b
    "<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">";
  Buffer.add_string b (Printf.sprintf "<title>%s</title>" (esc title));
  Buffer.add_string b "<style>";
  Buffer.add_string b css;
  Buffer.add_string b "</style></head><body>";
  Buffer.add_string b (Printf.sprintf "<header><h1>%s</h1>" (esc title));
  Buffer.add_string b
    (Printf.sprintf "<p class=\"sub\">conferr resilience report \xc2\xb7 %d scenario(s)</p></header>"
       total);
  Buffer.add_string b "<section class=\"tiles\">";
  Buffer.add_string b (tile "scenarios" (string_of_int total) (Printf.sprintf "%d applicable" (total - na)));
  Buffer.add_string b (tile "detection rate" (Printf.sprintf "%.0f%%" rate) "startup + functional + crashed");
  Buffer.add_string b (tile "crashed" (string_of_int (count (fun r -> r.outcome = "crashed") rows)) "");
  Buffer.add_string b (tile "distinct signatures" (string_of_int (distinct_signatures rows)) "");
  Buffer.add_string b (tile "flaky" (string_of_int (count (fun r -> r.flaky) rows)) "passed on retry");
  Buffer.add_string b (tile "SUT wall time" (Printf.sprintf "%.0f ms" wall) "sum over scenarios");
  Buffer.add_string b "</section>";
  Buffer.add_string b "<section><h2>Resilience profile</h2>";
  Buffer.add_string b legend;
  Buffer.add_string b (class_table rows);
  Buffer.add_string b "</section>";
  Buffer.add_string b "<section><h2>Latency</h2>";
  Buffer.add_string b (latency_section rows);
  Buffer.add_string b "</section>";
  Buffer.add_string b "<section><h2>Discovery frontier</h2>";
  Buffer.add_string b
    "<p class=\"muted\">distinct outcome signatures over campaign progress</p>";
  Buffer.add_string b (frontier_section rows);
  Buffer.add_string b "</section>";
  Buffer.add_string b "<section><h2>Hardening</h2>";
  Buffer.add_string b (hardening_section rows metrics_text);
  Buffer.add_string b "</section>";
  (match gaps with
  | None -> ()
  | Some gaps ->
    Buffer.add_string b "<section><h2>Validator gaps</h2>";
    Buffer.add_string b
      "<p class=\"muted\">static lint verdict \xc3\x97 dynamic outcome for every \
       replayed mutant (doc/lint.md)</p>";
    Buffer.add_string b (gaps_section gaps);
    Buffer.add_string b "</section>");
  (match infer with
  | None -> ()
  | Some infs ->
    Buffer.add_string b "<section><h2>Inferred constraints</h2>";
    Buffer.add_string b
      "<p class=\"muted\">constraint candidates mined from the campaign \
       journal, diffed against the hand-written rule set (doc/infer.md)</p>";
    Buffer.add_string b (infer_section infs);
    Buffer.add_string b "</section>");
  (match repairs with
  | None -> ()
  | Some reps ->
    Buffer.add_string b "<section><h2>Repairs</h2>";
    Buffer.add_string b
      "<p class=\"muted\">synthesized minimal edits making each broken \
       configuration lint-clean and SUT-accepted (doc/repair.md)</p>";
    Buffer.add_string b (repairs_section reps);
    Buffer.add_string b "</section>");
  (match analysis with
  | None -> ()
  | Some ans ->
    Buffer.add_string b "<section><h2>Corpus analysis</h2>";
    Buffer.add_string b
      "<p class=\"muted\">abstract interpretation over the whole \
       configuration set: relation checks, cross-file reference graph, \
       silent-default taint (doc/lint.md)</p>";
    Buffer.add_string b (analysis_section ans);
    Buffer.add_string b "</section>");
  (match metrics_text with
  | Some text when String.trim text <> "" ->
    Buffer.add_string b "<details><summary>Raw metrics snapshot</summary><pre>";
    Buffer.add_string b (esc text);
    Buffer.add_string b "</pre></details>"
  | _ -> ());
  Buffer.add_string b "</body></html>\n";
  Buffer.contents b

let write_file ~title ~rows ?metrics_text ?gaps ?infer ?repairs ?analysis path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (html ~title ~rows ?metrics_text ?gaps ?infer ?repairs ?analysis ()))
