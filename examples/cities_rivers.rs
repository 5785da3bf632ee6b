//! The paper's flagship query (§1/§5): "find the city nearest to any
//! river, such that the city has a population of more than 5 million" —
//! executed through the SQL-shaped query layer, under both plans the paper
//! discusses (filter after join vs filter before join).
//!
//! Run with: `cargo run --release --example cities_rivers`

use incremental_distance_join::datagen::{tiger, uniform_points, unit_box};
use incremental_distance_join::geom::Point;
use incremental_distance_join::query::{
    CmpOp, DistanceQuery, FilterPlacement, Predicate, Relation, Value,
};

fn main() {
    // Rivers: a Water-like set of 2,000 feature centroids.
    let mut rivers = Relation::new("rivers", &["feature"]);
    for (i, p) in tiger::water_like(2_000, 7).iter().enumerate() {
        rivers
            .insert(*p, vec![Value::from(format!("river-{i}").as_str())])
            .expect("insert");
    }

    // Cities: 500 locations with synthetic populations (a handful large).
    let mut cities = Relation::new("cities", &["name", "population"]);
    let locs = uniform_points(500, &unit_box(), 9);
    for (i, p) in locs.iter().enumerate() {
        let population: i64 = if i % 50 == 0 {
            5_000_001 + (i as i64) * 10_000
        } else {
            1_000 + (i as i64) * 37
        };
        cities
            .insert(
                *p,
                vec![
                    Value::from(format!("city-{i}").as_str()),
                    Value::from(population),
                ],
            )
            .expect("insert");
    }

    let megacity = Predicate::cmp("population", CmpOp::Gt, 5_000_000i64);

    // "STOP AFTER 1": the nearest qualifying (city, river) pair.
    println!("City nearest to any river, population > 5,000,000:");
    for plan in [
        FilterPlacement::FilterAfterJoin,
        FilterPlacement::FilterBeforeJoin,
    ] {
        let row = DistanceQuery::join(&cities, &rivers)
            .where_left(megacity.clone())
            .stop_after(1)
            .with_plan(plan)
            .execute()
            .next()
            .expect("some city qualifies");
        println!(
            "  [{plan:?}] {} (pop {}) at distance {:.4} from {}",
            cities.value(row.left, "name").unwrap(),
            cities.value(row.left, "population").unwrap(),
            row.distance,
            rivers.value(row.right, "feature").unwrap(),
        );
    }

    // Let the optimizer choose: the predicate keeps ~2% of cities, so it
    // should prefer materialising the filtered side.
    let auto = DistanceQuery::join(&cities, &rivers)
        .where_left(megacity.clone())
        .stop_after(1)
        .execute();
    println!("  optimizer selected: {:?}", auto.plan());

    // "Find cities within 0.02 of any river" — a within predicate plus
    // STOP AFTER, streamed in distance order.
    println!("\nFirst five (city, river) pairs within distance 0.02:");
    let rows = DistanceQuery::join(&cities, &rivers)
        .within(0.0, 0.02)
        .stop_after(5)
        .execute();
    for row in rows {
        println!(
            "  {} – {}  (d = {:.4})",
            cities.value(row.left, "name").unwrap(),
            rivers.value(row.right, "feature").unwrap(),
            row.distance
        );
    }

    // The semi-join form: every city's nearest river, first three results.
    println!("\nNearest river per city (first three, closest cities first):");
    let rows = DistanceQuery::semi_join(&cities, &rivers)
        .stop_after(3)
        .execute();
    for row in rows {
        let p: Point<2> = cities.point(row.left);
        println!(
            "  {} at ({:.2}, {:.2}) -> {} (d = {:.4})",
            cities.value(row.left, "name").unwrap(),
            p.x(),
            p.y(),
            rivers.value(row.right, "feature").unwrap(),
            row.distance
        );
    }
}
