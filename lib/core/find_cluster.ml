module Space = Bwc_metric.Space

(* Relative slack used whenever a cluster diameter is compared against the
   query constraint [l] — shared by the one-shot scan and the index so the
   two paths can never disagree on a borderline verification. *)
let diam_tol = 1e-9

let members space ~p ~q =
  let d = space.Space.dist in
  let dpq = d p q in
  let out = ref [] in
  for x = space.Space.n - 1 downto 0 do
    if d x p <= dpq && d x q <= dpq then out := x :: !out
  done;
  !out

(* |S*_pq| without materialising the member list: the scan hot path only
   needs the count, and allocating an O(n) list per pair turned the
   O(n^3) scan into an allocation storm. *)
let count_members space ~p ~q =
  let d = space.Space.dist in
  let dpq = d p q in
  let count = ref 0 in
  for x = 0 to space.Space.n - 1 do
    if d x p <= dpq && d x q <= dpq then incr count
  done;
  !count

let rec take k = function
  | [] -> []
  | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest

(* Pick k members, always keeping p and q (the diameter-realising pair is
   certainly inside any wanted cluster of this group). *)
let pick_k ~p ~q k members =
  let others = List.filter (fun x -> x <> p && x <> q) members in
  p :: q :: take (k - 2) others

let cluster_ok ~verify space ~l cluster =
  (not verify) || Space.diameter space cluster <= l *. (1.0 +. diam_tol)

(* Pairs are scanned in plain index order, as in the paper's pseudocode
   ("foreach node pair (p,q)").  The order matters on approximate tree
   metrics: scanning by ascending predicted distance would systematically
   return the most over-confidently embedded pairs (the ones noise made
   look closest) and bias the accuracy evaluation; index order returns an
   arbitrary satisfying pair instead. *)
let iter_pairs_until n f =
  try
    for p = 0 to n - 1 do
      for q = p + 1 to n - 1 do
        f p q
      done
    done
  with Exit -> ()

let find ?(verify = false) space ~k ~l =
  if k < 2 then invalid_arg "Find_cluster.find: k < 2";
  if space.Space.n < k then None
  else begin
    let result = ref None in
    iter_pairs_until space.Space.n (fun p q ->
        if space.Space.dist p q <= l then begin
          if count_members space ~p ~q >= k then begin
            let cluster = pick_k ~p ~q k (members space ~p ~q) in
            if cluster_ok ~verify space ~l cluster then begin
              result := Some cluster;
              raise Exit
            end
          end
        end);
    !result
  end

(* Algorithm 3, lines 3-8: the largest cluster per distance class in one
   pass.  Each pair within the widest class is counted once and offered
   to every class it fits; 1 when no pair qualifies (a lone node is a
   cluster of one), 0 on an empty space. *)
let max_sizes space ~ls =
  let n = space.Space.n in
  let best = Array.make (Array.length ls) (if n = 0 then 0 else 1) in
  let widest = Array.fold_left Float.max Float.neg_infinity ls in
  iter_pairs_until n (fun p q ->
      let dpq = space.Space.dist p q in
      if dpq <= widest then begin
        let size = count_members space ~p ~q in
        Array.iteri (fun i l -> if dpq <= l && size > best.(i) then best.(i) <- size) ls
      end);
  best

module Index = struct
  (* [counts.(u * n + v)] is |S*_uv ∩ members| for member pairs u < v of
     the universe; other cells are unused.  Pair distances never change,
     so a membership delta only adjusts counts. *)
  type t = {
    space : Space.t;            (* fixed universe; distances never change *)
    active : bool array;        (* membership flag per universe point *)
    mutable members : int array;    (* active host ids, ascending *)
    counts : int array;             (* n * n, see above *)
  }

  let cell t u v = (u * t.space.Space.n) + v

  (* |S*_uv ∩ members| by counting loop (cf. [count_members]). *)
  let count_active t ~u ~v d =
    let dist = t.space.Space.dist in
    let count = ref 0 in
    Array.iter (fun x -> if dist x u <= d && dist x v <= d then incr count) t.members;
    !count

  (* [f u v] for every member pair u < v, in index order. *)
  let iter_member_pairs t f =
    let a = Array.length t.members in
    for i = 0 to a - 1 do
      for j = i + 1 to a - 1 do
        f t.members.(i) t.members.(j)
      done
    done

  let create ~fail space members =
    let n = space.Space.n in
    Array.iteri
      (fun i h ->
        if h < 0 || h >= n then fail "host out of range";
        if i > 0 && members.(i - 1) >= h then fail "members not strictly ascending")
      members;
    let active = Array.make n false in
    Array.iter (fun h -> active.(h) <- true) members;
    { space; active; members; counts = Array.make (n * n) 0 }

  let count_all t =
    iter_member_pairs t (fun u v ->
        t.counts.(cell t u v) <- count_active t ~u ~v (t.space.Space.dist u v));
    t

  let build_subset space hosts =
    let fail msg = invalid_arg ("Find_cluster.Index: " ^ msg) in
    count_all (create ~fail space (Array.of_list (List.sort_uniq compare hosts)))

  let build space = build_subset space (List.init space.Space.n Fun.id)

  let size t = Array.length t.members
  let members t = Array.to_list t.members
  let is_member t h = h >= 0 && h < t.space.Space.n && t.active.(h)

  (* ----- incremental maintenance ----- *)

  (* [delta] on the count of every member pair whose ball contains [h]. *)
  let shift_balls t h delta =
    let dist = t.space.Space.dist in
    iter_member_pairs t (fun u v ->
        let d = dist u v in
        if dist h u <= d && dist h v <= d then begin
          let c = cell t u v in
          t.counts.(c) <- t.counts.(c) + delta
        end)

  let add_host t h =
    if h < 0 || h >= t.space.Space.n then
      invalid_arg "Find_cluster.Index.add_host: host out of range";
    if t.active.(h) then invalid_arg "Find_cluster.Index.add_host: already a member";
    (* 1. every existing pair whose ball the newcomer falls into grows *)
    shift_balls t h 1;
    (* 2. the newcomer's own pairs, counted against the grown membership *)
    t.active.(h) <- true;
    t.members <- Array.of_list (List.merge compare [ h ] (Array.to_list t.members));
    Array.iter
      (fun p ->
        if p <> h then begin
          let u = Stdlib.min p h and v = Stdlib.max p h in
          t.counts.(cell t u v) <- count_active t ~u ~v (t.space.Space.dist u v)
        end)
      t.members

  let remove_host t h =
    if not (is_member t h) then invalid_arg "Find_cluster.Index.remove_host: not a member";
    t.active.(h) <- false;
    t.members <- Array.of_list (List.filter (fun x -> x <> h) (Array.to_list t.members));
    (* the departed host leaves every ball it was counted in *)
    shift_balls t h (-1)

  (* ----- queries ----- *)

  (* S*_uv restricted to the active members, ascending host id. *)
  let members_active t ~u ~v d =
    let dist = t.space.Space.dist in
    List.filter
      (fun x -> dist x u <= d && dist x v <= d)
      (Array.to_list t.members)

  (* The stored count only selects candidate pairs; the answer comes from
     the recounted member list, so [find] never yields fewer than [k]
     hosts whatever a count says. *)
  let find ?(verify = false) t ~k ~l =
    if k < 2 then invalid_arg "Find_cluster.Index.find: k < 2";
    let result = ref None in
    (try
       iter_member_pairs t (fun u v ->
           if t.counts.(cell t u v) >= k then begin
             let d = t.space.Space.dist u v in
             if d <= l then begin
               let ball = members_active t ~u ~v d in
               if List.compare_length_with ball k >= 0 then begin
                 let cluster = pick_k ~p:u ~q:v k ball in
                 if cluster_ok ~verify t.space ~l cluster then begin
                   result := Some cluster;
                   raise Exit
                 end
               end
             end
           end)
     with Exit -> ());
    !result

  (* ----- persistence -----

     The universe space is a function and cannot be serialized; the dump
     carries the membership and the per-pair counts.  A count is derived
     state, and an image that understates one would make [find] miss a
     cluster that exists, so [of_dump] recounts every ball (the O(a^3)
     of [build_subset]) and refuses any count that differs. *)

  type dump = {
    d_members : int list; (* ascending *)
    d_sizes : int array; (* per (i, j), i < j over d_members, row-major *)
  }

  let dump t =
    let a = Array.length t.members in
    let sizes = Array.make (a * (a - 1) / 2) 0 in
    let pos = ref 0 in
    iter_member_pairs t (fun u v ->
        sizes.(!pos) <- t.counts.(cell t u v);
        incr pos);
    { d_members = Array.to_list t.members; d_sizes = sizes }

  let of_dump space d =
    let fail msg = invalid_arg ("Find_cluster.Index.of_dump: " ^ msg) in
    let t = create ~fail space (Array.of_list d.d_members) in
    let a = Array.length t.members in
    if Array.length d.d_sizes <> a * (a - 1) / 2 then fail "size table arity mismatch";
    let t = count_all t in
    if (dump t).d_sizes <> d.d_sizes then fail "count disagrees with its recounted ball";
    t
end
