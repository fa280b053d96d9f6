type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp () = { cmp; data = [||]; size = 0 }
let length h = h.size
let is_empty h = h.size = 0

let grow h x =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let new_cap = if cap = 0 then 16 else cap * 2 in
    let data = Array.make new_cap x in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp h.data.(i) h.data.(parent) < 0 then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < h.size && h.cmp h.data.(l) h.data.(i) < 0 then l else i in
  let smallest =
    if r < h.size && h.cmp h.data.(r) h.data.(smallest) < 0 then r else smallest
  in
  if smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(smallest);
    h.data.(smallest) <- tmp;
    sift_down h smallest
  end

let insert h x =
  grow h x;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let top h =
  if h.size = 0 then invalid_arg "Heap.top: empty heap";
  h.data.(0)

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty heap";
  let min = h.data.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.data.(0) <- h.data.(h.size);
    sift_down h 0
  end;
  (* Drop the stale slot so popped elements can be collected. *)
  h.data.(h.size) <- h.data.(if h.size = 0 then 0 else h.size - 1);
  min

let clear h =
  h.data <- [||];
  h.size <- 0

let to_sorted_list h =
  let copy = { cmp = h.cmp; data = Array.sub h.data 0 h.size; size = h.size } in
  let rec drain acc = if is_empty copy then List.rev acc else drain (pop copy :: acc) in
  drain []
