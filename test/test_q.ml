(* Unit and property tests for the exact rational field. *)

module Q = Hs_numeric.Q
module B = Hs_numeric.Bigint

let qi = Q.of_int
let qq = Q.of_ints

let check_q msg expected actual =
  Alcotest.(check string) msg (Q.to_string expected) (Q.to_string actual)

let test_normalisation () =
  check_q "2/4 = 1/2" (qq 1 2) (qq 2 4);
  check_q "-2/-4 = 1/2" (qq 1 2) (qq (-2) (-4));
  check_q "2/-4 = -1/2" (qq (-1) 2) (qq 2 (-4));
  check_q "0/7 = 0" Q.zero (qq 0 7);
  Alcotest.(check string) "den positive" "2" (B.to_string (Q.den (qq 3 (-2))));
  Alcotest.check_raises "zero denominator" Division_by_zero (fun () -> ignore (qq 1 0))

let test_arithmetic () =
  check_q "1/3 + 1/6" (qq 1 2) (Q.add (qq 1 3) (qq 1 6));
  check_q "1/2 - 1/3" (qq 1 6) (Q.sub (qq 1 2) (qq 1 3));
  check_q "2/3 * 3/4" (qq 1 2) (Q.mul (qq 2 3) (qq 3 4));
  check_q "(1/2) / (3/4)" (qq 2 3) (Q.div (qq 1 2) (qq 3 4));
  check_q "inv(-2/3)" (qq (-3) 2) (Q.inv (qq (-2) 3));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Q.div Q.one Q.zero));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (Q.inv Q.zero))

let test_rounding () =
  let fl x = B.to_int_exn (Q.floor x) and ce x = B.to_int_exn (Q.ceil x) in
  Alcotest.(check int) "floor 7/2" 3 (fl (qq 7 2));
  Alcotest.(check int) "ceil 7/2" 4 (ce (qq 7 2));
  Alcotest.(check int) "floor -7/2" (-4) (fl (qq (-7) 2));
  Alcotest.(check int) "ceil -7/2" (-3) (ce (qq (-7) 2));
  Alcotest.(check int) "floor 3" 3 (fl (qi 3));
  Alcotest.(check int) "ceil 3" 3 (ce (qi 3));
  Alcotest.(check int) "floor_int" 1 (Q.floor_int (qq 5 3));
  Alcotest.(check int) "ceil_int" 2 (Q.ceil_int (qq 5 3))

let test_of_string () =
  check_q "int" (qi 42) (Q.of_string "42");
  check_q "ratio" (qq 2 3) (Q.of_string "4/6");
  check_q "decimal" (qq 5 4) (Q.of_string "1.25");
  check_q "neg decimal" (qq (-5) 4) (Q.of_string "-1.25");
  check_q "leading dot" (qq 1 4) (Q.of_string "0.25")

let test_ordering () =
  Alcotest.(check bool) "1/3 < 1/2" true (Q.lt (qq 1 3) (qq 1 2));
  Alcotest.(check bool) "-1/2 < 1/3" true (Q.lt (qq (-1) 2) (qq 1 3));
  Alcotest.(check bool) "leq refl" true (Q.leq (qq 2 4) (qq 1 2));
  check_q "min" (qq 1 3) (Q.min (qq 1 3) (qq 1 2));
  check_q "max" (qq 1 2) (Q.max (qq 1 3) (qq 1 2))

let test_infix () =
  let open Q.Infix in
  Alcotest.(check bool) "infix expr" true (qq 1 2 + qq 1 3 = qq 5 6);
  Alcotest.(check bool) "infix order" true (qq 1 2 * qq 1 2 < qq 1 2)

let rational =
  let gen =
    QCheck.Gen.(
      map2
        (fun n d -> Q.of_ints n (if d = 0 then 1 else d))
        (int_range (-10000) 10000) (int_range (-100) 100))
  in
  QCheck.make ~print:Q.to_string gen

let triple = QCheck.triple rational rational rational

let prop_field_axioms =
  QCheck.Test.make ~name:"field axioms" ~count:1000 triple (fun (a, b, c) ->
      Q.equal (Q.add a (Q.add b c)) (Q.add (Q.add a b) c)
      && Q.equal (Q.mul a (Q.mul b c)) (Q.mul (Q.mul a b) c)
      && Q.equal (Q.add a b) (Q.add b a)
      && Q.equal (Q.mul a b) (Q.mul b a)
      && Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c))
      && Q.equal (Q.add a (Q.neg a)) Q.zero
      && (Q.is_zero a || Q.equal (Q.mul a (Q.inv a)) Q.one))

let prop_canonical =
  QCheck.Test.make ~name:"canonical form" ~count:1000 rational (fun a ->
      B.sign (Q.den a) > 0 && B.equal (B.gcd (Q.num a) (Q.den a)) B.one
      || (Q.is_zero a && B.equal (Q.den a) B.one))

let prop_order_compatible =
  QCheck.Test.make ~name:"order compatible with add" ~count:1000 triple
    (fun (a, b, c) -> not (Q.lt a b) || Q.lt (Q.add a c) (Q.add b c))

let prop_floor_ceil =
  QCheck.Test.make ~name:"floor/ceil bracket" ~count:1000 rational (fun a ->
      let f = Q.of_bigint (Q.floor a) and c = Q.of_bigint (Q.ceil a) in
      Q.leq f a && Q.leq a c
      && Q.lt a (Q.add f Q.one)
      && Q.lt (Q.sub c Q.one) a)

let prop_to_float_close =
  QCheck.Test.make ~name:"to_float approximates" ~count:500 rational (fun a ->
      Float.abs (Q.to_float a -. (B.to_float (Q.num a) /. B.to_float (Q.den a))) < 1e-9)

let test_to_float_huge () =
  (* Both parts beyond float range: dividing the converted parts used to
     give inf/inf = NaN. *)
  let pow k n = B.pow (B.of_int k) n in
  let ten400 = pow 10 400 in
  Alcotest.(check (float 0.)) "(10^400+1)/10^400" 1.0
    (Q.to_float (Q.make (B.add ten400 B.one) ten400));
  let x = Q.to_float (Q.make (pow 3 700) (pow 2 1100)) in
  Alcotest.(check (float 1e-9)) "3^700/2^1100" 1.0 (x /. 711.0220570);
  Alcotest.(check (float 0.)) "huge/1" infinity (Q.to_float (Q.make ten400 B.one));
  Alcotest.(check (float 0.)) "1/huge" 0. (Q.to_float (Q.make B.one ten400));
  Alcotest.(check (float 1e-12)) "10^300/(2*10^300+1)" 0.5
    (Q.to_float (Q.make (pow 10 300) (B.add (B.mul_int (pow 10 300) 2) B.one)))

(* Huge numerator and denominator (310-700 digits, beyond float range)
   against a reference read off the leading decimal digits. *)
let huge_fraction =
  let gen =
    QCheck.Gen.(
      let digits n =
        map (fun l -> String.concat "" (List.map string_of_int l))
          (list_size (return n) (int_range 0 9))
      in
      let* len_n = int_range 310 700 in
      let* len_d = int_range (Stdlib.max 310 (len_n - 250)) (Stdlib.min 700 (len_n + 250)) in
      let* sn = digits (len_n - 1) and* sd = digits (len_d - 1) in
      let* lead_n = int_range 1 9 and* lead_d = int_range 1 9 and* neg = bool in
      return ((if neg then "-" else "") ^ string_of_int lead_n ^ sn, string_of_int lead_d ^ sd))
  in
  QCheck.make ~print:(fun (n, d) -> n ^ "/" ^ d) gen

let leading_estimate s =
  let neg = s.[0] = '-' in
  let s = if neg then String.sub s 1 (String.length s - 1) else s in
  let m = float_of_string ("0." ^ String.sub s 0 17) in
  ((if neg then -.m else m), String.length s)

let prop_to_float_huge =
  QCheck.Test.make ~name:"to_float of huge fractions" ~count:200 huge_fraction
    (fun (sn, sd) ->
      let x = Q.to_float (Q.make (B.of_string sn) (B.of_string sd)) in
      let mn, en = leading_estimate sn and md, ed = leading_estimate sd in
      let expected = mn /. md *. (10. ** float_of_int (en - ed)) in
      Float.is_finite x && Float.abs ((x -. expected) /. expected) < 1e-12)

(* The integer shortcuts of [make], [add] and [mul] skip the gcd; compare
   them on boundary integers with the same value reached through the gcd
   path, as [make (n * 2^100) 2^100]. *)
let boundary_int = Test_bigint.boundary_gen

let k100 = B.pow (B.of_int 2) 100

let via_gcd n = Q.make (B.mul n k100) k100

let canonical x =
  B.sign (Q.den x) > 0
  && B.equal (B.gcd (Q.num x) (Q.den x)) B.one
  && B.check_invariant (Q.num x) && B.check_invariant (Q.den x)

let prop_integer_shortcut =
  QCheck.Test.make ~name:"integer shortcut = gcd path" ~count:2000
    (QCheck.make
       ~print:(fun (a, b, c) -> Printf.sprintf "%d, %d, %d" a b c)
       QCheck.Gen.(triple boundary_int boundary_int (int_range 1 1000)))
    (fun (a, b, c) ->
      let na = B.of_int a and nb = B.of_int b in
      let x = Q.of_int a and y = Q.of_int b in
      let sum = Q.add x y and prod = Q.mul x y and made = Q.make na B.one in
      (* Mixed with a non-integer: the shortcut must not fire. *)
      let frac = Q.of_ints b c in
      let msum = Q.add x frac and mprod = Q.mul x frac in
      List.for_all canonical [ sum; prod; made; msum; mprod ]
      && Q.equal sum (via_gcd (B.add na nb))
      && Q.equal prod (via_gcd (B.mul na nb))
      && Q.equal made (via_gcd na)
      && Q.equal msum (Q.make (B.add (B.mul na (B.of_int c)) nb) (B.of_int c))
      && Q.equal mprod (Q.make (B.mul na nb) (B.of_int c)))

(* [sub] and [div] pass [-y] and [1/y] to the bodies of [add] and [mul]
   as parts; they must agree with the composed definitions. *)
let prop_sub_div_composed =
  QCheck.Test.make ~name:"sub/div = add neg/mul inv" ~count:1000 triple
    (fun (a, b, _) ->
      let d = Q.sub a b and d' = Q.add a (Q.neg b) in
      canonical d && Q.equal d d'
      && (Q.is_zero b
         ||
         let q = Q.div a b and q' = Q.mul a (Q.inv b) in
         canonical q && Q.equal q q'))

let suite =
  let u name f = Alcotest.test_case name `Quick f in
  let q t = QCheck_alcotest.to_alcotest t in
  ( "q",
    [
      u "normalisation" test_normalisation;
      u "arithmetic" test_arithmetic;
      u "rounding" test_rounding;
      u "of_string" test_of_string;
      u "ordering" test_ordering;
      u "infix" test_infix;
      q prop_field_axioms;
      q prop_canonical;
      q prop_order_compatible;
      q prop_floor_ceil;
      q prop_to_float_close;
      u "to_float huge parts" test_to_float_huge;
      q prop_to_float_huge;
      q prop_integer_shortcut;
      q prop_sub_div_composed;
    ] )
